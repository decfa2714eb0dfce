/** @file Tests for the Wear Quota scheme (Section IV-C). */

#include <gtest/gtest.h>

#include "mellow/wear_quota.hh"
#include "sim/logging.hh"

using namespace mellowsim;

namespace
{

WearQuotaConfig
config(double years = 8.0, std::uint64_t blocks = 1000)
{
    WearQuotaConfig c;
    c.samplePeriod = 500 * kMicrosecond;
    c.targetLifetimeYears = years;
    c.ratioQuota = 0.9;
    c.blocksPerBank = blocks;
    return c;
}

} // namespace

TEST(WearQuota, BoundMatchesClosedForm)
{
    WearQuota q(config(), 4);
    // WearBound_bank = blocks * ratio * T_sample / T_lifetime
    double t_sample = 500e-6;
    double t_life = 8.0 * kSecondsPerYear;
    double expect = 1000.0 * 0.9 * t_sample / t_life;
    EXPECT_NEAR(q.wearBoundBank(), expect, expect * 1e-12);
}

TEST(WearQuota, NoWearNeverExceeds)
{
    WearQuota q(config(), 2);
    for (int i = 0; i < 10; ++i) {
        q.onPeriodBoundary();
        EXPECT_FALSE(q.slowOnly(BankId(0)));
        EXPECT_FALSE(q.slowOnly(BankId(1)));
        EXPECT_LE(q.exceedQuota(BankId(0)), 0.0);
    }
    EXPECT_EQ(q.numPeriods(), 10u);
}

TEST(WearQuota, HeavyWearTripsSlowOnly)
{
    WearQuota q(config(), 2);
    q.recordWear(BankId(0), q.wearBoundBank() * 5.0);
    q.onPeriodBoundary();
    EXPECT_TRUE(q.slowOnly(BankId(0)));
    EXPECT_FALSE(q.slowOnly(BankId(1))); // quota is per-bank
    EXPECT_GT(q.exceedQuota(BankId(0)), 0.0);
}

TEST(WearQuota, DebtAmortizesOverQuietPeriods)
{
    WearQuota q(config(), 1);
    // Overshoot by 3 periods' worth of budget in period 1...
    q.recordWear(BankId(0), q.wearBoundBank() * 4.0);
    q.onPeriodBoundary();
    EXPECT_TRUE(q.slowOnly(BankId(0)));
    // ...then stay quiet: after 3 more boundaries the debt clears.
    q.onPeriodBoundary();
    EXPECT_TRUE(q.slowOnly(BankId(0)));
    q.onPeriodBoundary();
    EXPECT_TRUE(q.slowOnly(BankId(0)));
    q.onPeriodBoundary();
    EXPECT_FALSE(q.slowOnly(BankId(0)));
}

TEST(WearQuota, ExactBudgetDoesNotTrip)
{
    WearQuota q(config(), 1);
    q.recordWear(BankId(0), q.wearBoundBank());
    q.onPeriodBoundary();
    // ExceedQuota must be strictly positive to force slow writes.
    EXPECT_FALSE(q.slowOnly(BankId(0)));
}

TEST(WearQuota, SlowOnlyPeriodCounting)
{
    WearQuota q(config(), 1);
    q.recordWear(BankId(0), q.wearBoundBank() * 2.5);
    q.onPeriodBoundary(); // slow
    q.onPeriodBoundary(); // still slow (debt 0.5 budget)
    q.onPeriodBoundary(); // clear
    EXPECT_EQ(q.slowOnlyPeriods(BankId(0)), 2u);
}

TEST(WearQuota, SteadyOverloadStaysSlowForever)
{
    WearQuota q(config(), 1);
    for (int i = 0; i < 20; ++i) {
        q.recordWear(BankId(0), q.wearBoundBank() * 2.0);
        q.onPeriodBoundary();
        EXPECT_TRUE(q.slowOnly(BankId(0))) << "period " << i;
    }
}

TEST(WearQuota, LongerTargetLifetimeMeansSmallerBudget)
{
    WearQuota q8(config(8.0), 1);
    WearQuota q16(config(16.0), 1);
    EXPECT_NEAR(q8.wearBoundBank() / q16.wearBoundBank(), 2.0, 1e-9);
}

TEST(WearQuota, BankIndexValidation)
{
    WearQuota q(config(), 2);
    EXPECT_THROW(q.recordWear(BankId(2), 1.0), PanicError);
    EXPECT_THROW((void)q.slowOnly(BankId(5)), PanicError);
    EXPECT_THROW((void)q.exceedQuota(BankId(5)), PanicError);
    EXPECT_THROW((void)q.bankWear(BankId(5)), PanicError);
    EXPECT_THROW((void)q.slowOnlyPeriods(BankId(5)), PanicError);
}

TEST(WearQuota, RejectsBadConfig)
{
    EXPECT_THROW(WearQuota(config(), 0), FatalError);
    WearQuotaConfig c = config();
    c.samplePeriod = 0;
    EXPECT_THROW(WearQuota(c, 1), FatalError);
    c = config();
    c.targetLifetimeYears = 0.0;
    EXPECT_THROW(WearQuota(c, 1), FatalError);
    c = config();
    c.ratioQuota = 1.2;
    EXPECT_THROW(WearQuota(c, 1), FatalError);
}

/**
 * Property: under any wear pattern, the long-run average wear rate of
 * a bank that respects slowOnly() (modelled here as writing exactly
 * the budget when free and nothing when slow-only) never exceeds the
 * per-period budget.
 */
TEST(WearQuota, LongRunRateBoundedByBudget)
{
    WearQuota q(config(), 1);
    double total = 0.0;
    for (int i = 0; i < 1000; ++i) {
        double wear = q.slowOnly(BankId(0)) ? 0.0 : q.wearBoundBank() * 1.7;
        q.recordWear(BankId(0), wear);
        total += wear;
        q.onPeriodBoundary();
    }
    double avg_per_period = total / 1000.0;
    // Allow one period of slack for the trailing overshoot.
    EXPECT_LE(avg_per_period,
              q.wearBoundBank() * (1.0 + 2.0 / 1000.0) * 1.001);
}

TEST(WearQuota, ColdStartIsSlowOnlyUntilFirstBoundary)
{
    WearQuota q(config(), 2);
    EXPECT_TRUE(q.slowOnly(BankId(0)));
    EXPECT_TRUE(q.slowOnly(BankId(1)));
    q.onPeriodBoundary(); // no wear recorded: headroom proven
    EXPECT_FALSE(q.slowOnly(BankId(0)));
}

TEST(WearQuota, ColdStartCanBeDisabled)
{
    WearQuotaConfig c = config();
    c.coldStartSlow = false;
    WearQuota q(c, 1);
    EXPECT_FALSE(q.slowOnly(BankId(0)));
}
