// analyze-expect: none
// Positive control: the typed index stays inside the typed domain,
// the handed-off request is never touched again, the module only
// speaks to its manifested dependencies, namespace-scope function
// declarations and the return-type line of a gem5-style static
// function are not mistaken for globals, and a handler-tier API off
// the event path stays clean.
#include "nvm/queues.hh"

#include "sim/event_queue.hh"

#include <chrono>

Tick retryDelay(Tick base);
Tick backoffFor(Tick);
unsigned clampBank(unsigned);

long
hostStartupStamp()
{
    return std::chrono::steady_clock::now().time_since_epoch().count();
}

static long
hostStartupDelta(long since)
{
    return hostStartupStamp() - since;
}

void
forwardWrite(RequestQueue &queue, MemRequest req)
{
    queue.push(std::move(req));
}

void
scheduleRetry(EventQueue &eventq, RequestQueue &queue, MemRequest req)
{
    queue.pushFront(std::move(req));
}
