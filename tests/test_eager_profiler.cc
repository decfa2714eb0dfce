/** @file Tests for the useless-LRU-position profiler (Figure 7). */

#include <gtest/gtest.h>

#include "cache/eager_profiler.hh"
#include "sim/logging.hh"

using namespace mellowsim;

namespace
{

EagerProfilerConfig
config(unsigned assoc = 8, double ratio = 1.0 / 32.0)
{
    EagerProfilerConfig c;
    c.assoc = assoc;
    c.thresholdRatio = ratio;
    return c;
}

} // namespace

TEST(EagerProfiler, NothingUselessBeforeFirstPeriod)
{
    EagerProfiler p(config());
    EXPECT_EQ(p.uselessFrom(), 8u); // no position is useless
}

TEST(EagerProfiler, FigureSevenScenario)
{
    // Figure 7: positions 3..7 accumulate < 1/32 of requests.
    EagerProfiler p(config(8));
    for (int i = 0; i < 700; ++i)
        p.notifyHit(0);
    for (int i = 0; i < 200; ++i)
        p.notifyHit(1);
    for (int i = 0; i < 70; ++i)
        p.notifyHit(2);
    // Tail positions: 20 hits total out of ~1000 -> but we need the
    // suffix to be < 1/32 (31.25): give 3..7 a total of 25 hits.
    for (int i = 0; i < 10; ++i)
        p.notifyHit(3);
    for (int i = 0; i < 6; ++i)
        p.notifyHit(4);
    for (int i = 0; i < 5; ++i)
        p.notifyHit(5);
    for (int i = 0; i < 3; ++i)
        p.notifyHit(6);
    for (int i = 0; i < 1; ++i)
        p.notifyHit(7);
    for (int i = 0; i < 5; ++i)
        p.notifyMiss();

    p.onSamplePeriod();
    EXPECT_EQ(p.uselessFrom(), 3u); // positions 3..7 are useless
}

TEST(EagerProfiler, AllHitsAtMruMarksEverythingElseUseless)
{
    EagerProfiler p(config(8));
    for (int i = 0; i < 1000; ++i)
        p.notifyHit(0);
    p.onSamplePeriod();
    // Suffix 1..7 has zero hits < threshold; position 0 carries all.
    EXPECT_EQ(p.uselessFrom(), 1u);
}

TEST(EagerProfiler, UniformHitsMarksNothingUseless)
{
    EagerProfiler p(config(8, 1.0 / 32.0));
    for (unsigned pos = 0; pos < 8; ++pos) {
        for (int i = 0; i < 100; ++i)
            p.notifyHit(pos);
    }
    p.onSamplePeriod();
    // Every position carries 12.5% >> 1/32: only the empty suffix is
    // below threshold.
    EXPECT_EQ(p.uselessFrom(), 8u);
}

TEST(EagerProfiler, AllMissesKeepsEverythingUseless)
{
    EagerProfiler p(config(8));
    for (int i = 0; i < 1000; ++i)
        p.notifyMiss();
    p.onSamplePeriod();
    // No hits anywhere: the whole stack is useless (streaming).
    EXPECT_EQ(p.uselessFrom(), 0u);
}

TEST(EagerProfiler, IdlePeriodKeepsPreviousVerdict)
{
    EagerProfiler p(config(8));
    for (int i = 0; i < 1000; ++i)
        p.notifyMiss();
    p.onSamplePeriod();
    EXPECT_EQ(p.uselessFrom(), 0u);
    p.onSamplePeriod(); // no traffic at all
    EXPECT_EQ(p.uselessFrom(), 0u);
    EXPECT_EQ(p.periods(), 2u);
}

TEST(EagerProfiler, CountersResetEachPeriod)
{
    EagerProfiler p(config(4));
    p.notifyHit(0);
    p.notifyMiss();
    EXPECT_EQ(p.hitCounters()[0], 1u);
    EXPECT_EQ(p.missCounter(), 1u);
    p.onSamplePeriod();
    EXPECT_EQ(p.hitCounters()[0], 0u);
    EXPECT_EQ(p.missCounter(), 0u);
}

TEST(EagerProfiler, VerdictAdaptsAcrossPeriods)
{
    EagerProfiler p(config(4, 0.25));
    // Period 1: only MRU hits -> positions 1+ useless.
    for (int i = 0; i < 100; ++i)
        p.notifyHit(0);
    p.onSamplePeriod();
    EXPECT_EQ(p.uselessFrom(), 1u);
    // Period 2: heavy LRU reuse -> nothing useless.
    for (int i = 0; i < 100; ++i)
        p.notifyHit(3);
    p.onSamplePeriod();
    EXPECT_EQ(p.uselessFrom(), 4u);
}

TEST(EagerProfiler, ThresholdBoundaryIsStrict)
{
    // Suffix exactly equal to the threshold is NOT useless.
    EagerProfiler p(config(2, 0.25));
    for (int i = 0; i < 75; ++i)
        p.notifyHit(0);
    for (int i = 0; i < 25; ++i)
        p.notifyHit(1); // exactly 25% at the tail
    p.onSamplePeriod();
    EXPECT_EQ(p.uselessFrom(), 2u);
}

TEST(EagerProfiler, OutOfRangePositionPanics)
{
    EagerProfiler p(config(4));
    EXPECT_THROW(p.notifyHit(4), PanicError);
}

TEST(EagerProfiler, RejectsBadConfig)
{
    EagerProfilerConfig c = config();
    c.assoc = 0;
    EXPECT_THROW(EagerProfiler{c}, FatalError);
    c = config();
    c.thresholdRatio = 0.0;
    EXPECT_THROW(EagerProfiler{c}, FatalError);
    c = config();
    c.thresholdRatio = 1.5;
    EXPECT_THROW(EagerProfiler{c}, FatalError);
    c = config();
    c.samplePeriod = 0;
    EXPECT_THROW(EagerProfiler{c}, FatalError);
}

/** Property: uselessFrom is monotone in the threshold ratio. */
TEST(EagerProfiler, MonotoneInThreshold)
{
    unsigned prev = 0;
    bool first = true;
    for (double ratio : {1.0 / 128, 1.0 / 32, 1.0 / 8, 1.0 / 2}) {
        EagerProfiler p(config(8, ratio));
        // Geometric hit distribution over positions.
        int hits = 1 << 10;
        for (unsigned pos = 0; pos < 8; ++pos) {
            for (int i = 0; i < hits; ++i)
                p.notifyHit(pos);
            hits /= 2;
        }
        p.onSamplePeriod();
        if (!first) {
            EXPECT_LE(p.uselessFrom(), prev);
        }
        prev = p.uselessFrom();
        first = false;
    }
}
