// analyze-expect: nondeterminism
// A helper reachable from a scheduled callback reads the host's
// steady clock. That API is banned only on the event path (the
// handler tier); pass_control.cc reads it off the event path and
// stays clean.
#include "sim/event_queue.hh"

#include <chrono>

namespace {

long
sampleHostTime()
{
    return std::chrono::steady_clock::now().time_since_epoch().count();
}

} // namespace

void
schedulePoll(EventQueue &eventq)
{
    eventq.scheduleIn(100, [] { (void)sampleHostTime(); });
}
