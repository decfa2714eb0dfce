#include "workload/geometric_gap.hh"

#include <cmath>

namespace mellowsim
{

GeometricGap::GeometricGap(double mean)
    : _mean(mean),
      _logQ(mean > 0.0 ? std::log1p(-(1.0 / (mean + 1.0))) : 0.0)
{
}

std::uint64_t
GeometricGap::reference(double u) const
{
    // Inverse CDF of the geometric distribution on {0, 1, 2, ...}
    // with success probability 1 / (mean + 1).
    double g = std::floor(std::log1p(-u) / _logQ);
    if (g < 0.0)
        g = 0.0;
    return static_cast<std::uint64_t>(g);
}

void
GeometricGap::fill()
{
    _filled = true;
    // Thresholds until three lie below the table's floor 2^-12, so
    // that a covered bucket's reads up to start + 3 stay filled.
    unsigned count = 0;
    for (unsigned below = 0; count < kThresholds && below < 3; ++count) {
        _threshold[count] = std::exp(static_cast<double>(count) * _logQ);
        if (_threshold[count] < 0x1.0p-12)
            ++below;
    }
    // From the top bucket down, k is the last threshold at or above
    // the bucket's upper edge. A bucket is covered when at most two
    // thresholds fall inside it and the table reaches past them.
    unsigned k = 0;
    for (std::uint64_t b = kBuckets; b-- > 0;) {
        const double hi =
            std::bit_cast<double>((kFirstBucket + b + 1) << kBucketShift);
        const double lo =
            std::bit_cast<double>((kFirstBucket + b) << kBucketShift);
        while (k + 1 < count && _threshold[k + 1] >= hi)
            ++k;
        const bool covered = k + 3 < count && _threshold[k + 3] < lo;
        _start[b] = covered ? static_cast<std::uint16_t>(k) : kSlowBucket;
    }
}

} // namespace mellowsim
