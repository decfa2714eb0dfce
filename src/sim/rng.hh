/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (workload address streams,
 * random LLC set selection for the eager scanner, ...) draws from
 * seeded xorshift128+ generators so every experiment is
 * bit-reproducible. std::mt19937 is deliberately avoided: its state is
 * large and its distributions are implementation-defined across
 * standard libraries.
 */

#ifndef MELLOWSIM_SIM_RNG_HH
#define MELLOWSIM_SIM_RNG_HH

#include <cstdint>

namespace mellowsim
{

/**
 * xorshift128+ generator (Vigna, 2014). Fast, 16 bytes of state,
 * passes BigCrush except MatrixRank; more than adequate for workload
 * synthesis.
 */
class Rng
{
  public:
    /** Construct from a seed; any 64-bit value (including 0) is fine. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = _s0;
        const std::uint64_t y = _s1;
        _s0 = y;
        x ^= x << 23;
        _s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        return _s1 + y;
    }

    /** Uniform integer in [0, bound) using Lemire's multiply-shift. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        if (bound <= 1)
            return 0;
        // The tiny modulo bias is irrelevant for workload synthesis.
        return static_cast<std::uint64_t>(
            (static_cast<__uint128_t>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        // 53 random mantissa bits.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw: true with probability @p p. */
    bool
    nextBool(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

  private:
    std::uint64_t _s0;
    std::uint64_t _s1;

    /** splitmix64 used to expand the single seed into state. */
    static std::uint64_t splitmix64(std::uint64_t &x);
};

} // namespace mellowsim

#endif // MELLOWSIM_SIM_RNG_HH
