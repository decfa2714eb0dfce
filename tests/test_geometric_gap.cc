/**
 * @file
 * Tests for the synthetic workloads' geometric gap draw. The
 * exactness tests run under the `golden` label: the table path must
 * return floor(log1p(-u) / L) bit for bit, or every generator's op
 * stream, and with it every fingerprint, would change.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "workload/generators.hh"
#include "workload/geometric_gap.hh"
#include "workload/workload.hh"

using namespace mellowsim;

namespace
{

/** The definition of a gap, written out independently of the class. */
std::uint64_t
expectedGap(double mean, double u)
{
    const double logQ = std::log1p(-(1.0 / (mean + 1.0)));
    double g = std::floor(std::log1p(-u) / logQ);
    if (g < 0.0)
        g = 0.0;
    return static_cast<std::uint64_t>(g);
}

/** The 11 Table IV generators' means, then 0.5, 3 and 1000. */
std::vector<double>
exactnessMeans()
{
    std::vector<double> means;
    for (const std::string &name : workloadNames()) {
        WorkloadPtr w = makeWorkload(name);
        means.push_back(
            dynamic_cast<const SyntheticWorkload &>(*w).params().meanGap);
    }
    for (double extra : {0.5, 3.0, 1000.0})
        means.push_back(extra);
    return means;
}

/** Rng::nextDouble's grid: u = m * 2^-53. */
constexpr double kUlp = 0x1.0p-53;
constexpr std::int64_t kMaxM = (std::int64_t{1} << 53) - 1;

/**
 * Check every grid u within +-@p span steps of the u whose x = 1 - u
 * is @p x; returns how many disagree, stopping at 5.
 */
int
mismatchesAround(GeometricGap &gap, double mean, double x, int span)
{
    const std::int64_t centre = std::llround((1.0 - x) / kUlp);
    int bad = 0;
    for (std::int64_t m = std::max<std::int64_t>(0, centre - span);
         m <= std::min(kMaxM, centre + span); ++m) {
        const double u = static_cast<double>(m) * kUlp;
        if (gap.fromUniform(u) != expectedGap(mean, u)) {
            ADD_FAILURE() << "mean " << mean << " u " << u << ": got "
                          << gap.fromUniform(u) << ", want "
                          << expectedGap(mean, u);
            if (++bad >= 5)
                return bad;
        }
    }
    return bad;
}

class GeometricGapExactness : public ::testing::TestWithParam<double>
{
};

} // namespace

/** 10^7 draws from a live Rng stream agree with the definition. */
TEST_P(GeometricGapExactness, RandomDrawsMatchTheDefinition)
{
    const double mean = GetParam();
    GeometricGap gap(mean);
    Rng rng(0x6A9u + static_cast<std::uint64_t>(mean * 1000.0));
    Rng twin = rng;
    constexpr int kDraws = 10'000'000;
    int bad = 0;
    for (int i = 0; i < kDraws; ++i) {
        const std::uint64_t got = gap.draw(rng);
        const double u = twin.nextDouble();
        const std::uint64_t want = expectedGap(mean, u);
        if (got != want) {
            ADD_FAILURE() << "mean " << mean << " draw " << i << " u " << u
                          << ": got " << got << ", want " << want;
            if (++bad >= 5)
                break;
        }
    }
}

/**
 * Every grid u within 64 steps of every threshold T_k = exp(k L) down
 * to 2^-53, and of both edges T_k (1 +- 1e-12) of the margin the
 * table leaves to the reference, agrees with the definition.
 */
TEST_P(GeometricGapExactness, EveryUNearAThresholdMatchesTheDefinition)
{
    const double mean = GetParam();
    const double logQ = std::log1p(-(1.0 / (mean + 1.0)));
    GeometricGap gap(mean);
    for (int k = 0;; ++k) {
        const double t = std::exp(static_cast<double>(k) * logQ);
        if (t < 0x1.0p-53)
            break;
        ASSERT_EQ(mismatchesAround(gap, mean, t, 64), 0) << "k " << k;
        if (t < 0x1.0p-12)
            continue;
        ASSERT_EQ(mismatchesAround(gap, mean, t * (1.0 - 1e-12), 64), 0)
            << "k " << k;
        ASSERT_EQ(mismatchesAround(gap, mean, t * (1.0 + 1e-12), 64), 0)
            << "k " << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Means, GeometricGapExactness,
                         ::testing::ValuesIn(exactnessMeans()));

TEST(GeometricGap, MeanMatches)
{
    Rng r(17);
    for (double mean : {0.5, 5.0, 80.0}) {
        GeometricGap gap(mean);
        double sum = 0.0;
        constexpr int kDraws = 200000;
        for (int i = 0; i < kDraws; ++i)
            sum += static_cast<double>(gap.draw(r));
        EXPECT_NEAR(sum / kDraws, mean, mean * 0.05 + 0.05);
    }
}

TEST(GeometricGap, ZeroMeanIsZero)
{
    // A mean of 0 draws nothing from the stream.
    Rng r(19);
    Rng twin = r;
    GeometricGap gap(0.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(gap.draw(r), 0u);
    EXPECT_EQ(r.next(), twin.next());
}
