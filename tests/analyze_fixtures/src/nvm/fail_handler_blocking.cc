// analyze-expect: handler-blocking
// A scheduled callback reaches a helper that takes a mutex and then
// blocks waiting on other threads. A handler that blocks stalls its
// simulation and lets thread scheduling decide event order, so both
// sites must be rejected.
#include "sim/event_queue.hh"
#include "sim/sync.hh"

namespace
{

sync::Mutex g_drainMutex;

void
drainSideTable()
{
    sync::LockGuard guard(g_drainMutex);
}

} // namespace

void waitForWorkers();

void
scheduleDrain(EventQueue &eventq)
{
    eventq.scheduleIn(50, [] {
        drainSideTable();
        waitForWorkers();
    });
}
