#include "sim/rng.hh"

#include <cmath>

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

double
Rng::nextDouble()
{
    // 53 random mantissa bits.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

std::uint64_t
Rng::nextGeometric(double mean)
{
    if (mean <= 0.0)
        return 0;
    double u = nextDouble();
    // Inverse CDF of the geometric distribution on {0, 1, 2, ...}
    // with success probability 1 / (mean + 1).
    if (mean != _geomMean) {
        _geomMean = mean;
        _geomLogQ = std::log1p(-(1.0 / (mean + 1.0)));
    }
    double g = std::floor(std::log1p(-u) / _geomLogQ);
    if (g < 0.0)
        g = 0.0;
    return static_cast<std::uint64_t>(g);
}

} // namespace mellowsim
