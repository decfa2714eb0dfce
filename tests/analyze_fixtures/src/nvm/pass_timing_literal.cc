// analyze-expect: none
// The sanctioned ways to obtain a Tick must stay clean under the
// timing-literal rule: named unit-carrying conversions, values
// threaded from the config binding, annotated constants, and
// arithmetic on existing Ticks.

#include "sim/strong_types.hh"
#include "sim/types.hh"

namespace fixture
{

struct GoodTimings
{
    // Device timings arrive through the named conversions fed by the
    // config layer, never as inline literals.
    Tick fromConfig = ticksFromNanoseconds(150.0);
    Tick fromClock = clockPeriodTicks(Megahertz(400.0));

    // mlint: allow(timing-literal): fixture: simulator-infrastructure
    // cadence, not a device datasheet timing
    Tick annotated = 500 * kMicrosecond;
};

inline Tick
derived(Tick base)
{
    // Arithmetic on Ticks that already exist is fine.
    return base + base / 2;
}

} // namespace fixture
