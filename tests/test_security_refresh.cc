/** @file Tests for Security-Refresh-style wear leveling. */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "sim/logging.hh"
#include "wear/security_refresh.hh"
#include "wear/wear_leveler.hh"
#include "wear/wear_tracker.hh"

using namespace mellowsim;

namespace
{

/** Assert the logical->physical map is a bijection. */
void
expectBijective(const SecurityRefresh &sr)
{
    std::set<std::uint64_t> used;
    for (std::uint64_t la = 0; la < sr.numBlocks(); ++la) {
        std::uint64_t pa = sr.remap(la);
        ASSERT_LT(pa, sr.numPhysicalBlocks());
        ASSERT_TRUE(used.insert(pa).second)
            << "collision at physical " << pa;
    }
    ASSERT_EQ(used.size(), sr.numBlocks());
}

} // namespace

TEST(SecurityRefresh, InitialMappingIsKeyedBijection)
{
    SecurityRefresh sr(64, 8, 1);
    expectBijective(sr);
    // XOR remapping with a non-zero key moves most blocks.
    int moved = 0;
    for (std::uint64_t la = 0; la < 64; ++la)
        moved += sr.remap(la) != la;
    EXPECT_GT(moved, 32);
}

TEST(SecurityRefresh, StaysBijectiveThroughRefreshSweep)
{
    SecurityRefresh sr(32, 1, 7); // refresh step on every write
    for (int i = 0; i < 32 * 4 + 5; ++i) {
        expectBijective(sr);
        std::uint64_t extra[2];
        sr.noteWrite(extra);
    }
}

TEST(SecurityRefresh, KeysRotateAfterFullRound)
{
    SecurityRefresh sr(16, 1, 7);
    std::uint64_t first_next = sr.nextKey();
    EXPECT_EQ(sr.rounds(), 0u);
    for (int i = 0; i < 16; ++i)
        sr.noteWrite();
    EXPECT_EQ(sr.rounds(), 1u);
    EXPECT_EQ(sr.currentKey(), first_next);
    EXPECT_NE(sr.nextKey(), sr.currentKey());
    expectBijective(sr);
}

TEST(SecurityRefresh, RefreshIntervalThrottlesSteps)
{
    SecurityRefresh sr(16, 4, 7);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(sr.noteWrite(), 0u);
    // 4th write advances the pointer (a swap may or may not occur
    // depending on the pair ordering, but the pointer moves).
    sr.noteWrite();
    EXPECT_EQ(sr.refreshPointer(), 1u);
}

TEST(SecurityRefresh, SwapsReportTwoExtraWrites)
{
    SecurityRefresh sr(64, 1, 7);
    std::uint64_t swaps = 0, steps = 0;
    std::uint64_t extra[2];
    for (int i = 0; i < 64; ++i) {
        unsigned n = sr.noteWrite(extra);
        EXPECT_TRUE(n == 0 || n == 2);
        if (n == 2) {
            ++swaps;
            EXPECT_LT(extra[0], 64u);
            EXPECT_LT(extra[1], 64u);
            EXPECT_NE(extra[0], extra[1]);
        }
        ++steps;
    }
    // Exactly one member of each pair triggers the swap: half the
    // pointer positions.
    EXPECT_EQ(swaps, 32u);
    EXPECT_EQ(steps, 64u);
}

TEST(SecurityRefresh, MappingChangesOnlyForRefreshedPairs)
{
    SecurityRefresh sr(64, 1, 9);
    std::map<std::uint64_t, std::uint64_t> before;
    for (std::uint64_t la = 0; la < 64; ++la)
        before[la] = sr.remap(la);
    std::uint64_t d = sr.currentKey() ^ sr.nextKey();

    // One refresh step: pair {0, d} is re-keyed, the rest untouched.
    sr.noteWrite();
    for (std::uint64_t la = 0; la < 64; ++la) {
        if (la == 0 || la == d) {
            EXPECT_NE(sr.remap(la), before[la]) << la;
        } else {
            EXPECT_EQ(sr.remap(la), before[la]) << la;
        }
    }
    expectBijective(sr);
}

TEST(SecurityRefresh, HotBlockVisitsManySlotsOverRounds)
{
    SecurityRefresh sr(32, 1, 11);
    std::set<std::uint64_t> homes;
    for (int i = 0; i < 32 * 20; ++i) {
        homes.insert(sr.remap(5));
        sr.noteWrite();
    }
    // 20 key rotations: the hot block should have seen many homes.
    EXPECT_GE(homes.size(), 10u);
}

TEST(SecurityRefresh, RejectsBadGeometry)
{
    EXPECT_THROW(SecurityRefresh(0, 1), FatalError);
    EXPECT_THROW(SecurityRefresh(1, 1), FatalError);
    EXPECT_THROW(SecurityRefresh(48, 1), FatalError); // not a power of 2
    EXPECT_THROW(SecurityRefresh(16, 0), FatalError);
}

TEST(SecurityRefresh, RemapRejectsOutOfRange)
{
    SecurityRefresh sr(16, 1);
    EXPECT_THROW((void)sr.remap(16), PanicError);
}

TEST(WearLeveler, KindNames)
{
    EXPECT_STREQ(wearLevelerKindName(WearLevelerKind::StartGap),
                 "start-gap");
    EXPECT_STREQ(wearLevelerKindName(WearLevelerKind::SecurityRefresh),
                 "security-refresh");
    EXPECT_STREQ(wearLevelerKindName(WearLevelerKind::None), "none");
}

TEST(WearLeveler, NoLevelingIsIdentity)
{
    NoLeveling n(8);
    EXPECT_EQ(n.numPhysicalBlocks(), 8u);
    for (std::uint64_t la = 0; la < 8; ++la)
        EXPECT_EQ(n.remap(la), la);
    EXPECT_EQ(n.noteWrite(nullptr), 0u);
}

/** Integration: the tracker levels a hot block under every scheme. */
TEST(WearLeveler, TrackerLevelsHotBlockUnderBothSchemes)
{
    EnduranceModel model;
    for (WearLevelerKind kind : {WearLevelerKind::StartGap,
                                 WearLevelerKind::SecurityRefresh}) {
        WearTrackerConfig c;
        c.numBanks = 1;
        c.blocksPerBank = 64;
        c.leveler = kind;
        c.gapWritePeriod = 2;
        c.detailedBlocks = true;
        WearTracker t(c, model);
        for (int i = 0; i < 64 * 65 * 4; ++i)
            t.recordWrite(BankId(0), DeviceAddr(7), 150 * kNanosecond, false);
        EXPECT_LT(t.maxBlockWear(BankId(0)) / t.meanBlockWear(BankId(0)), 12.0)
            << wearLevelerKindName(kind);
    }

    // And without leveling the same pattern concentrates completely.
    WearTrackerConfig c;
    c.numBanks = 1;
    c.blocksPerBank = 64;
    c.leveler = WearLevelerKind::None;
    c.detailedBlocks = true;
    WearTracker t(c, model);
    for (int i = 0; i < 64 * 65 * 4; ++i)
        t.recordWrite(BankId(0), DeviceAddr(7), 150 * kNanosecond, false);
    EXPECT_GT(t.maxBlockWear(BankId(0)) / t.meanBlockWear(BankId(0)), 50.0);
}
