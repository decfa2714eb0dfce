// analyze-expect: nondeterminism
// fail_nondeterminism_handler.cc with the helper defined indented,
// inside an indented namespace: a scheduled callback still reaches
// the host's steady clock.
#include "sim/event_queue.hh"

#include <chrono>

namespace outer {
    namespace probe {

    long
    hostTimeIndented()
    {
        return std::chrono::steady_clock::now().time_since_epoch().count();
    }

    } // namespace probe
} // namespace outer

void
schedulePollIndented(EventQueue &eventq)
{
    eventq.scheduleIn(100, [] { (void)outer::probe::hostTimeIndented(); });
}
