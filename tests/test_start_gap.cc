/** @file Tests for Start-Gap wear leveling. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/logging.hh"
#include "wear/start_gap.hh"

using namespace mellowsim;

namespace
{

/** Assert the logical->physical map is injective and skips the gap. */
void
expectBijective(const StartGap &sg)
{
    std::set<std::uint64_t> used;
    for (std::uint64_t la = 0; la < sg.numBlocks(); ++la) {
        std::uint64_t pa = sg.remap(la);
        ASSERT_LT(pa, sg.numPhysicalBlocks());
        ASSERT_NE(pa, sg.gap()) << "logical " << la << " maps to gap";
        ASSERT_TRUE(used.insert(pa).second)
            << "collision at physical " << pa;
    }
}

} // namespace

TEST(StartGap, InitialMappingIsIdentity)
{
    StartGap sg(16);
    for (std::uint64_t la = 0; la < 16; ++la)
        EXPECT_EQ(sg.remap(la), la);
    EXPECT_EQ(sg.gap(), 16u);
    EXPECT_EQ(sg.start(), 0u);
}

TEST(StartGap, RemapRejectsOutOfRange)
{
    StartGap sg(8);
    EXPECT_THROW((void)sg.remap(8), PanicError);
}

TEST(StartGap, GapMovesEveryPeriodWrites)
{
    StartGap sg(16, 4);
    std::uint64_t copied = 0;
    EXPECT_FALSE(sg.noteWrite(&copied));
    EXPECT_FALSE(sg.noteWrite(&copied));
    EXPECT_FALSE(sg.noteWrite(&copied));
    EXPECT_TRUE(sg.noteWrite(&copied));
    EXPECT_EQ(sg.gap(), 15u);
    EXPECT_EQ(copied, 16u); // block copied into the old gap slot
    EXPECT_EQ(sg.gapMoves(), 1u);
}

TEST(StartGap, MappingStaysBijectiveThroughManyMoves)
{
    StartGap sg(8, 1); // move the gap on every write
    for (int i = 0; i < 100; ++i) {
        expectBijective(sg);
        sg.noteWrite();
    }
}

TEST(StartGap, StartAdvancesAfterFullGapRotation)
{
    StartGap sg(4, 1);
    // Gap positions: 4 -> 3 -> 2 -> 1 -> 0, then wrap to 4, start=1.
    for (int i = 0; i < 4; ++i)
        sg.noteWrite();
    EXPECT_EQ(sg.gap(), 0u);
    EXPECT_EQ(sg.start(), 0u);
    std::uint64_t copied = 1234;
    sg.noteWrite(&copied);
    EXPECT_EQ(sg.gap(), 4u);
    EXPECT_EQ(sg.start(), 1u);
    EXPECT_EQ(copied, 0u); // wrap copy lands in physical 0
    expectBijective(sg);
}

TEST(StartGap, StartWrapsAroundModuloN)
{
    StartGap sg(3, 1);
    // (N+1) moves advance start by one; 3 full cycles wrap start.
    for (int i = 0; i < 3 * 4; ++i)
        sg.noteWrite();
    EXPECT_EQ(sg.start(), 0u);
    expectBijective(sg);
}

/**
 * Property: over a long write stream, every logical block visits many
 * distinct physical blocks — the rotation that levels wear.
 */
TEST(StartGap, LogicalBlocksRotateOverPhysicalBlocks)
{
    StartGap sg(32, 1);
    std::set<std::uint64_t> homes;
    for (int i = 0; i < 33 * 32; ++i) {
        homes.insert(sg.remap(5));
        sg.noteWrite();
    }
    // After N+1 moves per start increment and N start values, logical
    // block 5 must have lived in every physical slot.
    EXPECT_EQ(homes.size(), sg.numPhysicalBlocks());
}

TEST(StartGap, SingleBlockDegenerateCase)
{
    StartGap sg(1, 1);
    for (int i = 0; i < 10; ++i) {
        EXPECT_LT(sg.remap(0), 2u);
        EXPECT_NE(sg.remap(0), sg.gap());
        sg.noteWrite();
    }
}

TEST(StartGap, RejectsZeroBlocksOrPeriod)
{
    EXPECT_THROW(StartGap(0, 1), FatalError);
    EXPECT_THROW(StartGap(4, 0), FatalError);
}

/** Parameterised bijectivity fuzz over sizes and periods. */
class StartGapSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(StartGapSweep, AlwaysBijective)
{
    auto [blocks, period] = GetParam();
    StartGap sg(static_cast<std::uint64_t>(blocks),
                static_cast<std::uint64_t>(period));
    for (int i = 0; i < 500; ++i) {
        sg.noteWrite();
        if (i % 17 == 0)
            expectBijective(sg);
    }
    expectBijective(sg);
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, StartGapSweep,
    ::testing::Combine(::testing::Values(2, 3, 7, 16, 64),
                       ::testing::Values(1, 3, 100)));
