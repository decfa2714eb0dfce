// analyze-expect: nondeterminism
// Raw libc randomness is banned in every file, on the event path or
// not: a replay with the same seed must draw the same values.
#include <cstdlib>

unsigned
pickVictimWay(unsigned ways)
{
    return static_cast<unsigned>(std::rand()) % ways;
}
