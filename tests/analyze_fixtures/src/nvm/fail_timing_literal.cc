// analyze-expect: timing-literal
// Every spelling of a hard-coded timing the timing-literal rule must
// reject in simulator sources outside the sanctioned homes
// (rules.toml [timing-literal].homes).

#include "sim/types.hh"

namespace fixture
{

struct BadTimings
{
    Tick scaled = 150 * kNanosecond;
    Tick reversed = kMicrosecond * 500;
    Tick fractional = Tick(22.5 * kNanosecond);
    Tick bare = Tick(1000);
    Tick wall = 10 * kSecond;
};

} // namespace fixture
