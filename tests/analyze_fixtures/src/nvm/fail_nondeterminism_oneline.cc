// analyze-expect: nondeterminism
// fail_nondeterminism_handler.cc with the helper defined on one line
// (`long name() {`): a scheduled callback still reaches the host's
// steady clock.
#include "sim/event_queue.hh"

#include <chrono>

namespace {

long sampleHostTimeInline() {
    return std::chrono::steady_clock::now().time_since_epoch().count();
}

} // namespace

void
schedulePollInline(EventQueue &eventq)
{
    eventq.scheduleIn(100, [] { (void)sampleHostTimeInline(); });
}
