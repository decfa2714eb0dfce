// analyze-expect: schedule-literal
// An event scheduled at an absolute tick instead of relative to now:
// it lands in the past once the simulation passes tick 5000.
#include "sim/event_queue.hh"

void
armRefresh(EventQueue &eventq)
{
    eventq.schedule(5000, [] {});
}
