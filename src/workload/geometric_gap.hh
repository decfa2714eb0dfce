/**
 * @file
 * The synthetic workloads' compute-gap draw.
 *
 * A gap is geometrically distributed on {0, 1, 2, ...} with mean m,
 * drawn by inverting the CDF: k = floor(log1p(-u) / L) for a uniform
 * u in [0, 1), with L = log1p(-1 / (m + 1)). That reference
 * evaluation costs a log1p per memory op, so most draws take a table
 * instead and return the same k bit for bit.
 *
 * With x = 1 - u (exact for the 53-bit u that Rng::nextDouble
 * returns), k is the number of thresholds T_j = exp(j * L), j >= 1,
 * that x lies at or below. The bits of x above bit 45 (exponent plus
 * 7 mantissa bits) index a bucket over x in [2^-12, 1); the bucket
 * holds the k of its upper edge, and two compares against the next
 * two thresholds settle k. The table path answers only when x is
 * farther than tau = 1e-12 (relative) from both thresholds around it.
 * Both the reference quotient and the tabled thresholds sit within
 * ~3e-14 (relative) of their exact values, so outside that margin
 * they cannot disagree (DESIGN.md "Gap draw"). Every other x, and
 * every bucket the table does not cover, takes the reference path.
 */

#ifndef MELLOWSIM_WORKLOAD_GEOMETRIC_GAP_HH
#define MELLOWSIM_WORKLOAD_GEOMETRIC_GAP_HH

#include <array>
#include <bit>
#include <cstdint>

#include "sim/rng.hh"

namespace mellowsim
{

/** See file comment. */
class GeometricGap
{
  public:
    /** Gaps with mean @p mean; a mean <= 0 always draws 0. */
    explicit GeometricGap(double mean);

    /** One gap; consumes one nextDouble() unless the mean is <= 0. */
    std::uint64_t
    draw(Rng &rng)
    {
        if (_mean <= 0.0)
            return 0;
        return fromUniform(rng.nextDouble());
    }

    /**
     * The gap for the uniform draw @p u in [0, 1), equal to
     * reference(u). The mean must be positive.
     */
    std::uint64_t
    fromUniform(double u)
    {
        if (!_filled)
            fill();
        const double x = 1.0 - u;
        const std::uint64_t bucket =
            (std::bit_cast<std::uint64_t>(x) >> kBucketShift) -
            kFirstBucket;
        if (bucket < kBuckets && _start[bucket] != kSlowBucket) {
            const unsigned start = _start[bucket];
            const unsigned k = start +
                               (x <= _threshold[start + 1] ? 1u : 0u) +
                               (x <= _threshold[start + 2] ? 1u : 0u);
            if (x < _threshold[k] * (1.0 - kTau) &&
                x > _threshold[k + 1] * (1.0 + kTau)) {
                return k;
            }
        }
        return reference(u);
    }

    /** floor(log1p(-u) / L), clamped at 0: the definition of a gap. */
    [[nodiscard]] std::uint64_t reference(double u) const;

  private:
    /** Relative margin around a threshold left to the reference. */
    static constexpr double kTau = 1e-12;
    /** x's bits above this one index a bucket. */
    static constexpr unsigned kBucketShift = 45;
    /** Bucket of x = 2^-12, the smallest x the table covers. */
    static constexpr std::uint64_t kFirstBucket =
        std::bit_cast<std::uint64_t>(0x1.0p-12) >> kBucketShift;
    /** Buckets over [2^-12, 1): 12 binades of 128. */
    static constexpr std::uint64_t kBuckets = 12 * 128;
    /** Thresholds tabled at most; covers every mean up to ~245. */
    static constexpr unsigned kThresholds = 2048;
    /** _start value of a bucket the table does not cover. */
    static constexpr std::uint16_t kSlowBucket = 0xFFFF;

    /** Build the tables (on the first draw, not at construction). */
    void fill();

    double _mean;
    /** L = log1p(-1 / (mean + 1)). */
    double _logQ;
    bool _filled = false;
    /** Per bucket: k at its upper edge, or kSlowBucket. */
    std::array<std::uint16_t, kBuckets> _start{};
    /** T_j = exp(j * L); filled up to three past 2^-12. */
    std::array<double, kThresholds> _threshold{};
};

} // namespace mellowsim

#endif // MELLOWSIM_WORKLOAD_GEOMETRIC_GAP_HH
