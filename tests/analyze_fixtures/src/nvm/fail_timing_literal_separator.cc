// analyze-expect: timing-literal
// A timing literal written with a digit separator. The quote must not
// be read as the start of a char literal, or the rest of the line,
// tick constant included, would be blanked before the rule looks.

#include "sim/types.hh"

constexpr Tick kRefreshInterval = 7'800 * kNanosecond;
