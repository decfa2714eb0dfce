// analyze-expect: nondeterminism
// fail_nondeterminism_handler.cc with the helper an in-class method
// defined on one line: a scheduled callback still reaches the host's
// steady clock.
#include "sim/event_queue.hh"

#include <chrono>

class HostSampler
{
  public:
    long stamp() { return std::chrono::steady_clock::now().time_since_epoch().count(); }
};

void
schedulePollMethod(EventQueue &eventq, HostSampler &sampler)
{
    eventq.scheduleIn(100, [&sampler] { (void)sampler.stamp(); });
}
