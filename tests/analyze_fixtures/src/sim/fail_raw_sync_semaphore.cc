// analyze-expect: raw-sync
// Every raw counting/rendezvous primitive below must trip raw-sync.
// Workers are joined through sync::ThreadGroup; ad-hoc semaphores,
// latches and barriers have no analyzer vocabulary.
#include <barrier>
#include <latch>
#include <semaphore>

void
acquireSlot()
{
    std::counting_semaphore<4> slots(4);
    std::binary_semaphore ready(0);
    std::latch startLine(2);
    std::barrier<> epochEdge(2);
    slots.acquire();
    ready.release();
    startLine.arrive_and_wait();
    epochEdge.arrive_and_wait();
}
