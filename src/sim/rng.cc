#include "sim/rng.hh"

namespace mellowsim
{

std::uint64_t
Rng::splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    _s0 = splitmix64(x);
    _s1 = splitmix64(x);
    // xorshift128+ requires a non-zero state.
    if (_s0 == 0 && _s1 == 0)
        _s1 = 1;
}

} // namespace mellowsim
