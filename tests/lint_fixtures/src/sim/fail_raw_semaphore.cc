// mellow_lint fixture: every raw counting/rendezvous primitive below
// must trip raw-sync-primitive (the registered ctest is WILL_FAIL).
// Workers are joined through sync::ThreadGroup; ad-hoc semaphores,
// latches and barriers have no analyzer vocabulary.
#include <barrier>
#include <latch>
#include <semaphore>

std::counting_semaphore<4> g_slots(4);
std::binary_semaphore g_ready(0);
std::latch g_startLine(2);
std::barrier<> g_epochEdge(2);

void
acquireSlot()
{
    g_slots.acquire();
    g_ready.release();
    g_startLine.arrive_and_wait();
    g_epochEdge.arrive_and_wait();
}
