/** @file Unit and statistical tests for the xorshift128+ RNG. */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "sim/rng.hh"

using namespace mellowsim;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, ZeroSeedWorks)
{
    Rng r(0);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 100; ++i)
        seen.insert(r.next());
    EXPECT_GT(seen.size(), 95u);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(r.nextBounded(bound), bound);
    }
}

TEST(Rng, BoundedOneAlwaysZero)
{
    Rng r(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.nextBounded(1), 0u);
}

TEST(Rng, BoundedIsRoughlyUniform)
{
    Rng r(123);
    constexpr int kBuckets = 16;
    constexpr int kDraws = 160000;
    int counts[kBuckets] = {};
    for (int i = 0; i < kDraws; ++i)
        ++counts[r.nextBounded(kBuckets)];
    // Each bucket should be within 5% of the expected count.
    for (int c : counts) {
        EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.05);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(9);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        double v = r.nextDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, BoolRespectsProbability)
{
    Rng r(11);
    int trues = 0;
    for (int i = 0; i < 100000; ++i)
        trues += r.nextBool(0.3);
    EXPECT_NEAR(trues / 100000.0, 0.3, 0.01);
}

TEST(Rng, BoolEdgeProbabilities)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.nextBool(0.0));
        EXPECT_TRUE(r.nextBool(1.0));
        EXPECT_FALSE(r.nextBool(-0.5));
        EXPECT_TRUE(r.nextBool(1.5));
    }
}
