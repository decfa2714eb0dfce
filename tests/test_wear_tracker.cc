/** @file Tests for per-bank wear accounting and lifetime math. */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/logging.hh"
#include "wear/endurance_model.hh"
#include "wear/wear_tracker.hh"

using namespace mellowsim;

namespace
{

WearTrackerConfig
smallConfig(bool detailed = false)
{
    WearTrackerConfig c;
    c.numBanks = 2;
    c.blocksPerBank = 64;
    c.gapWritePeriod = 4;
    c.levelingEfficiency = 0.9;
    c.detailedBlocks = detailed;
    return c;
}

constexpr Tick kNorm = 150 * kNanosecond;
constexpr Tick kSlow = 450 * kNanosecond;

} // namespace

TEST(WearTracker, NormalWriteAddsOneEnduranceUnit)
{
    EnduranceModel model;
    WearTracker t(smallConfig(), model);
    t.recordWrite(BankId(0), DeviceAddr(3), kNorm, false);
    EXPECT_DOUBLE_EQ(t.bankStats(BankId(0)).wearUnits, 1.0 / 5.0e6);
    EXPECT_EQ(t.bankStats(BankId(0)).normalWrites, 1u);
    EXPECT_EQ(t.bankStats(BankId(0)).slowWrites, 0u);
}

TEST(WearTracker, SlowWriteWearsNineTimesLess)
{
    // Expo 2.0, 3x latency -> 9x endurance -> 1/9 the wear.
    EnduranceModel model;
    WearTracker t(smallConfig(), model);
    t.recordWrite(BankId(0), DeviceAddr(0), kNorm, false);
    t.recordWrite(BankId(1), DeviceAddr(0), kSlow, true);
    EXPECT_NEAR(t.bankStats(BankId(0)).wearUnits /
                    t.bankStats(BankId(1)).wearUnits,
                9.0, 1e-9);
    EXPECT_EQ(t.bankStats(BankId(1)).slowWrites, 1u);
}

TEST(WearTracker, CancelledWriteWearsProportionally)
{
    EnduranceModel model;
    WearTracker t(smallConfig(), model);
    // Half the pulse elapsed, full cancel fraction.
    t.recordCancelledWrite(BankId(0), DeviceAddr(0), kNorm, kNorm / 2,
                           false, 1.0);
    EXPECT_NEAR(t.bankStats(BankId(0)).wearUnits, 0.5 / 5.0e6, 1e-15);
    EXPECT_EQ(t.bankStats(BankId(0)).cancelledWrites, 1u);

    // Scaled by the cancel-wear fraction.
    t.recordCancelledWrite(BankId(1), DeviceAddr(0), kNorm, kNorm / 2,
                           false, 0.5);
    EXPECT_NEAR(t.bankStats(BankId(1)).wearUnits, 0.25 / 5.0e6, 1e-15);
}

TEST(WearTracker, CancelledLongerThanPulsePanics)
{
    EnduranceModel model;
    WearTracker t(smallConfig(), model);
    EXPECT_THROW(
        t.recordCancelledWrite(BankId(0), DeviceAddr(0), kNorm, kNorm + 1,
                               false, 1.0),
        PanicError);
}

TEST(WearTracker, LifetimeInfiniteWithoutWrites)
{
    EnduranceModel model;
    WearTracker t(smallConfig(), model);
    EXPECT_TRUE(std::isinf(t.lifetimeSeconds(kSecond)));
}

TEST(WearTracker, LifetimeAtZeroSimTimeIsInfiniteNotNaN)
{
    // Regression: asking for a lifetime before the clock has advanced
    // (e.g. a report generated at tick 0) used to divide by zero.
    // With wear but no time — or neither — the answer is +inf, never
    // NaN, so min-over-banks and downstream report math stay sane.
    EnduranceModel model;
    WearTracker t(smallConfig(), model);
    t.recordWrite(BankId(0), DeviceAddr(0), kNorm, false);
    EXPECT_TRUE(std::isinf(t.lifetimeSeconds(0)));
    EXPECT_TRUE(std::isinf(t.bankLifetimeSeconds(BankId(0), 0)));
    EXPECT_FALSE(std::isnan(t.lifetimeYears(0)));
    EXPECT_TRUE(std::isinf(t.lifetimeYears(0)));

    // Zero wear with zero time (0/0) must also be +inf, not NaN.
    WearTracker untouched(smallConfig(), model);
    EXPECT_TRUE(std::isinf(untouched.lifetimeSeconds(0)));
    EXPECT_FALSE(std::isnan(untouched.lifetimeYears(0)));
}

TEST(WearTracker, LifetimeMatchesClosedForm)
{
    EnduranceModel model;
    WearTracker t(smallConfig(), model);
    // 1000 normal writes to bank 0 during 1 ms of simulation.
    for (int i = 0; i < 1000; ++i)
        t.recordWrite(BankId(0), DeviceAddr(static_cast<std::uint64_t>(i % 64)),
                      kNorm, false);
    Tick sim = kMillisecond;
    // lifetime = simTime * blocks * eta / wearUnits
    double expect =
        1e-3 * 64.0 * 0.9 / (1000.0 / 5.0e6);
    EXPECT_NEAR(t.bankLifetimeSeconds(BankId(0), sim), expect,
                expect * 1e-12);
    // System lifetime is the minimum over banks; bank 1 is unwritten.
    EXPECT_DOUBLE_EQ(t.lifetimeSeconds(sim),
                     t.bankLifetimeSeconds(BankId(0), sim));
}

TEST(WearTracker, LifetimeYearsConversion)
{
    EnduranceModel model;
    WearTracker t(smallConfig(), model);
    t.recordWrite(BankId(0), DeviceAddr(0), kNorm, false);
    EXPECT_NEAR(t.lifetimeYears(kSecond) * kSecondsPerYear,
                t.lifetimeSeconds(kSecond), 1e-6);
}

TEST(WearTracker, SlowerWritesExtendLifetime)
{
    EnduranceModel model;
    WearTracker norm(smallConfig(), model);
    WearTracker slow(smallConfig(), model);
    for (int i = 0; i < 500; ++i) {
        norm.recordWrite(BankId(0), DeviceAddr(0), kNorm, false);
        slow.recordWrite(BankId(0), DeviceAddr(0), kSlow, true);
    }
    EXPECT_NEAR(slow.lifetimeSeconds(kSecond) /
                    norm.lifetimeSeconds(kSecond),
                9.0, 1e-9);
}

TEST(WearTracker, DetailedModeTracksBlocksThroughStartGap)
{
    EnduranceModel model;
    WearTracker t(smallConfig(true), model);
    // Hammer one logical block; Start-Gap must spread the wear.
    for (int i = 0; i < 64 * 65 * 4; ++i)
        t.recordWrite(BankId(0), DeviceAddr(7), kNorm, false);
    double max_wear = t.maxBlockWear(BankId(0));
    double mean_wear = t.meanBlockWear(BankId(0));
    EXPECT_GT(mean_wear, 0.0);
    // With gap period 4, the single hot block rotates across all
    // physical blocks: max/mean must be far below the no-leveling
    // ratio (which would be ~numPhysicalBlocks = 65).
    EXPECT_LT(max_wear / mean_wear, 10.0);
    EXPECT_GT(t.bankStats(BankId(0)).gapMoveWrites, 0u);
}

TEST(WearTracker, DetailedModeCountsGapCopyWear)
{
    EnduranceModel model;
    WearTracker t(smallConfig(true), model);
    double unit = model.wearPerWriteFactor(PulseFactor(1.0));
    // 4 writes trigger exactly one gap move (period 4).
    for (int i = 0; i < 4; ++i)
        t.recordWrite(BankId(0), DeviceAddr(0), kNorm, false);
    EXPECT_EQ(t.bankStats(BankId(0)).gapMoveWrites, 1u);
    EXPECT_NEAR(t.bankStats(BankId(0)).wearUnits, 5.0 * unit, 1e-18);
}

TEST(WearTracker, DetailedAccessorsRequireDetailedMode)
{
    EnduranceModel model;
    WearTracker t(smallConfig(false), model);
    EXPECT_THROW((void)t.maxBlockWear(BankId(0)), PanicError);
    EXPECT_THROW((void)t.meanBlockWear(BankId(0)), PanicError);
    EXPECT_THROW((void)t.leveler(BankId(0)), PanicError);
}

TEST(WearTracker, BankIndexValidation)
{
    EnduranceModel model;
    WearTracker t(smallConfig(), model);
    EXPECT_THROW(t.recordWrite(BankId(2), DeviceAddr(0), kNorm, false),
                 PanicError);
    EXPECT_THROW((void)t.bankStats(BankId(9)), PanicError);
}

TEST(WearTracker, RejectsBadConfig)
{
    EnduranceModel model;
    WearTrackerConfig c = smallConfig();
    c.numBanks = 0;
    EXPECT_THROW(WearTracker(c, model), FatalError);
    c = smallConfig();
    c.levelingEfficiency = 0.0;
    EXPECT_THROW(WearTracker(c, model), FatalError);
    c = smallConfig();
    c.levelingEfficiency = 1.5;
    EXPECT_THROW(WearTracker(c, model), FatalError);
}

TEST(WearTracker, TotalAndMaxAggregates)
{
    EnduranceModel model;
    WearTracker t(smallConfig(), model);
    t.recordWrite(BankId(0), DeviceAddr(0), kNorm, false);
    t.recordWrite(BankId(1), DeviceAddr(0), kNorm, false);
    t.recordWrite(BankId(1), DeviceAddr(1), kNorm, false);
    EXPECT_NEAR(t.totalWearUnits(), 3.0 / 5.0e6, 1e-15);
    EXPECT_NEAR(t.maxBankWearUnits(), 2.0 / 5.0e6, 1e-15);
}
