/** @file Tests for the LLC with the Eager Mellow Writes machinery. */

#include <gtest/gtest.h>

#include "cache/llc.hh"
#include "mellow/policy.hh"
#include "nvm/controller.hh"
#include "sim/event_queue.hh"

using namespace mellowsim;
using namespace mellowsim::policies;

namespace
{

MemControllerConfig
memConfig(const WritePolicyConfig &policy)
{
    MemControllerConfig c;
    c.geometry.numBanks = 4;
    c.geometry.numRanks = 2;
    c.geometry.capacityBytes = 1ull << 20;
    c.policy = policy;
    return c;
}

LlcConfig
llcConfig(bool eager)
{
    LlcConfig c;
    c.cache.name = "LLC";
    c.cache.sizeBytes = 16 * 4 * kBlockSize; // 16 sets x 4 ways
    c.cache.assoc = 4;
    c.cache.hitLatency = Tick(17.5 * kNanosecond);
    c.eagerEnabled = eager;
    c.scanInterval = 4 * kNanosecond;
    return c;
}

struct Fixture
{
    EventQueue eq;
    MemoryController ctrl;
    Llc llc;
    Fixture(const WritePolicyConfig &policy, bool eager)
        : ctrl(eq, memConfig(policy)), llc(eq, llcConfig(eager), ctrl, 7)
    {
    }
};

} // namespace

TEST(Llc, DemandAccessCountsHitsAndMisses)
{
    Fixture f(norm(), false);
    EXPECT_FALSE(f.llc.access(LogicalAddr(0x40), false).hit);
    f.llc.fillFromMemory(LogicalAddr(0x40));
    EXPECT_TRUE(f.llc.access(LogicalAddr(0x40), false).hit);
    EXPECT_EQ(f.llc.stats().demandReads.value(), 2u);
    EXPECT_EQ(f.llc.stats().hits.value(), 1u);
    EXPECT_EQ(f.llc.stats().misses.value(), 1u);
}

TEST(Llc, ProfilerSeesDemandTraffic)
{
    Fixture f(norm(), false);
    f.llc.access(LogicalAddr(0x40), false); // miss
    f.llc.fillFromMemory(LogicalAddr(0x40));
    f.llc.access(LogicalAddr(0x40), false); // hit at MRU
    EXPECT_EQ(f.llc.profiler().missCounter(), 1u);
    EXPECT_EQ(f.llc.profiler().hitCounters()[0], 1u);
}

TEST(Llc, DirtyEvictionWritesBackToMemory)
{
    Fixture f(norm(), false);
    // Fill one set (4 ways) with dirty lines, then evict.
    // Set index = (addr>>6) & 15; use set 0: block addr multiples of
    // 16 blocks.
    for (std::uint64_t i = 0; i < 4; ++i)
        f.llc.writebackFromUpper(LogicalAddr(i * 16 * kBlockSize));
    EXPECT_EQ(f.llc.stats().writebacksToMem.value(), 0u);
    f.llc.writebackFromUpper(LogicalAddr(4 * 16 * kBlockSize));
    EXPECT_EQ(f.llc.stats().writebacksToMem.value(), 1u);
    EXPECT_EQ(f.ctrl.stats().acceptedWritebacks.value(), 1u);
}

TEST(Llc, CleanEvictionIsSilent)
{
    Fixture f(norm(), false);
    for (std::uint64_t i = 0; i < 5; ++i)
        f.llc.fillFromMemory(LogicalAddr(i * 16 * kBlockSize));
    EXPECT_EQ(f.llc.stats().cleanEvictions.value(), 1u);
    EXPECT_EQ(f.ctrl.stats().acceptedWritebacks.value(), 0u);
}

TEST(Llc, WritebackFromUpperAllocatesOnMiss)
{
    Fixture f(norm(), false);
    f.llc.writebackFromUpper(LogicalAddr(0x40));
    EXPECT_TRUE(f.llc.array().probe(LogicalAddr(0x40)));
    EXPECT_EQ(f.llc.array().countDirtyLines(), 1u);
    // A second write back to the same line hits.
    f.llc.writebackFromUpper(LogicalAddr(0x40));
    EXPECT_EQ(f.llc.stats().hits.value(), 1u);
}

TEST(Llc, EagerScanSendsUselessDirtyLine)
{
    Fixture f(beMellow().withSC(), true);
    // Make every position useless: one period of pure misses.
    for (int i = 0; i < 100; ++i)
        f.llc.access(LogicalAddr(static_cast<Addr>(i + 1000) * kBlockSize),
                     false);
    f.eq.run(f.eq.curTick() + 510 * kMicrosecond);
    EXPECT_EQ(f.llc.profiler().uselessFrom(), 0u);

    // Install a dirty line and let the scanner find it.
    f.llc.writebackFromUpper(LogicalAddr(0x40));
    f.eq.run(f.eq.curTick() + 200 * kMicrosecond);
    EXPECT_GE(f.llc.stats().eagerSent.value(), 1u);
    EXPECT_EQ(f.ctrl.stats().acceptedEager.value(),
              f.llc.stats().eagerSent.value());
    // The line stays resident but is now clean.
    EXPECT_TRUE(f.llc.array().probe(LogicalAddr(0x40)));
    EXPECT_EQ(f.llc.array().countDirtyLines(), 0u);
}

TEST(Llc, EagerScanRespectsUselessBoundary)
{
    Fixture f(beMellow().withSC(), true);
    // Build a period where MRU position is useful: hits at pos 0.
    f.llc.writebackFromUpper(LogicalAddr(0x40)); // dirty line, MRU of its set
    for (int i = 0; i < 1000; ++i)
        f.llc.access(LogicalAddr(0x40), false); // keeps hitting at position 0
    f.eq.run(f.eq.curTick() + 510 * kMicrosecond);
    ASSERT_GE(f.llc.profiler().uselessFrom(), 1u);
    // The dirty line sits at MRU (position 0) of its set: not useless,
    // so the scanner must never send it.
    f.eq.run(f.eq.curTick() + 200 * kMicrosecond);
    EXPECT_EQ(f.llc.stats().eagerSent.value(), 0u);
}

TEST(Llc, NoEagerMachineryWhenDisabled)
{
    Fixture f(norm(), false);
    f.llc.writebackFromUpper(LogicalAddr(0x40));
    for (int i = 0; i < 100; ++i)
        f.llc.access(LogicalAddr(static_cast<Addr>(i + 1000) * kBlockSize),
                     false);
    f.eq.run(f.eq.curTick() + kMillisecond);
    EXPECT_EQ(f.llc.stats().eagerSent.value(), 0u);
    EXPECT_EQ(f.llc.stats().eagerScans.value(), 0u);
}

TEST(Llc, WastedEagerWriteDetected)
{
    Fixture f(beMellow().withSC(), true);
    for (int i = 0; i < 100; ++i)
        f.llc.access(LogicalAddr(static_cast<Addr>(i + 1000) * kBlockSize),
                     false);
    f.eq.run(f.eq.curTick() + 510 * kMicrosecond);
    f.llc.writebackFromUpper(LogicalAddr(0x40));
    f.eq.run(f.eq.curTick() + 100 * kMicrosecond);
    ASSERT_GE(f.llc.stats().eagerSent.value(), 1u);
    // Re-dirty the eagerly cleaned line: the eager write was wasted.
    f.llc.writebackFromUpper(LogicalAddr(0x40));
    EXPECT_EQ(f.llc.stats().eagerWasted.value(), 1u);
}

namespace
{

/** How EagerScanIsIndependentOfRunChunking advances time. */
enum class Drive
{
    OneRun,
    MicrosecondRuns,
    Steps,
};

/** Counters the chunking test compares. */
struct ScanOutcome
{
    std::uint64_t scans;
    std::uint64_t sent;
    std::uint64_t dirty;
    friend bool operator==(const ScanOutcome &,
                           const ScanOutcome &) = default;
};

/**
 * Make every position useless, then for 50 us add a dirty line and
 * touch an older one at every microsecond boundary. MicrosecondRuns
 * makes those changes between run() calls; the other drives make
 * them from events scheduled at the same ticks.
 */
ScanOutcome
scanOver50us(Drive drive)
{
    Fixture f(beMellow().withSC(), true);
    for (int i = 0; i < 100; ++i)
        f.llc.access(LogicalAddr(static_cast<Addr>(i + 1000) * kBlockSize),
                     false);
    f.eq.run(f.eq.curTick() + 510 * kMicrosecond + 1);
    EXPECT_EQ(f.llc.profiler().uselessFrom(), 0u);

    constexpr int kChunks = 50;
    const Tick start = f.eq.curTick();
    const Tick end = start + kChunks * kMicrosecond;
    auto poke = [&f](int k) {
        f.llc.writebackFromUpper(LogicalAddr((k * 5 + 1) * kBlockSize));
        if (k >= 3)
            f.llc.access(LogicalAddr(((k - 3) * 5 + 1) * kBlockSize),
                         false);
    };
    bool ended = false;
    f.eq.schedule(end, [&ended] { ended = true; });
    if (drive == Drive::MicrosecondRuns) {
        for (int k = 0; k < kChunks; ++k) {
            poke(k);
            f.eq.run(start + (k + 1) * kMicrosecond);
        }
    } else {
        for (int k = 0; k < kChunks; ++k)
            f.eq.schedule(start + k * kMicrosecond, [&poke, k] { poke(k); });
        if (drive == Drive::OneRun) {
            f.eq.run(end);
        } else {
            while (!ended && f.eq.step()) {
            }
        }
    }
    EXPECT_EQ(f.eq.curTick(), end);
    return {f.llc.stats().eagerScans.value(),
            f.llc.stats().eagerSent.value(),
            f.llc.array().countDirtyLines()};
}

} // namespace

TEST(Llc, EagerScanIsIndependentOfRunChunking)
{
    // A batched scan firing covers ticks up to the queue's horizon; a
    // caller that changes the LLC between run() calls relies on the
    // run's stop tick bounding that horizon.
    const ScanOutcome one = scanOver50us(Drive::OneRun);
    EXPECT_GT(one.sent, 10u);
    EXPECT_EQ(scanOver50us(Drive::MicrosecondRuns), one);
    EXPECT_EQ(scanOver50us(Drive::Steps), one);
}

TEST(Llc, PrimeWarmsWithoutStatsOrTraffic)
{
    Fixture f(norm(), false);
    f.llc.prime(LogicalAddr(0x40), true);
    f.llc.prime(LogicalAddr(0x80), false);
    EXPECT_TRUE(f.llc.array().probe(LogicalAddr(0x40)));
    EXPECT_TRUE(f.llc.array().probe(LogicalAddr(0x80)));
    EXPECT_EQ(f.llc.array().countDirtyLines(), 1u);
    EXPECT_EQ(f.llc.stats().demandReads.value(), 0u);
    EXPECT_EQ(f.llc.stats().demandWrites.value(), 0u);
    EXPECT_EQ(f.ctrl.stats().acceptedWritebacks.value(), 0u);
}

TEST(Llc, SamplePeriodsAdvanceOverTime)
{
    Fixture f(norm(), false);
    f.eq.run(f.eq.curTick() + Tick(2.6 * kMillisecond));
    EXPECT_EQ(f.llc.profiler().periods(), 5u);
}

// --- Decay dead-block predictor selector (paper's future work) ------

TEST(LlcDbp, RecentlyTouchedDirtyLineIsNotSent)
{
    EventQueue eq;
    MemoryController ctrl(eq, memConfig(beMellow().withSC()));
    LlcConfig cfg = llcConfig(true);
    cfg.selector = EagerSelector::DecayDeadBlock;
    cfg.deadAfterPeriods = 2;
    Llc llc(eq, cfg, ctrl, 7);

    llc.writebackFromUpper(LogicalAddr(0x40)); // dirty, stamped period 0
    // Within the same period the line is never a candidate.
    eq.run(eq.curTick() + 400 * kMicrosecond);
    EXPECT_EQ(llc.stats().eagerSent.value(), 0u);
}

TEST(LlcDbp, UntouchedDirtyLineIsSentAfterDecay)
{
    EventQueue eq;
    MemoryController ctrl(eq, memConfig(beMellow().withSC()));
    LlcConfig cfg = llcConfig(true);
    cfg.selector = EagerSelector::DecayDeadBlock;
    cfg.deadAfterPeriods = 2;
    Llc llc(eq, cfg, ctrl, 7);

    llc.writebackFromUpper(LogicalAddr(0x40));
    // After two full periods of silence the line is predicted dead.
    eq.run(eq.curTick() + Tick(2.5 * kMillisecond));
    EXPECT_GE(llc.stats().eagerSent.value(), 1u);
    EXPECT_TRUE(llc.array().probe(LogicalAddr(0x40)));
    EXPECT_EQ(llc.array().countDirtyLines(), 0u);
}

TEST(LlcDbp, TouchingResetsTheDecayClock)
{
    EventQueue eq;
    MemoryController ctrl(eq, memConfig(beMellow().withSC()));
    LlcConfig cfg = llcConfig(true);
    cfg.selector = EagerSelector::DecayDeadBlock;
    cfg.deadAfterPeriods = 2;
    Llc llc(eq, cfg, ctrl, 7);

    llc.writebackFromUpper(LogicalAddr(0x40));
    // Keep touching the line each period: never predicted dead.
    for (int period = 0; period < 6; ++period) {
        eq.run(eq.curTick() + 450 * kMicrosecond);
        llc.access(LogicalAddr(0x40), /*isWrite=*/true);
    }
    EXPECT_EQ(llc.stats().eagerSent.value(), 0u);
}

TEST(LlcDbp, IgnoresTheUselessPositionVerdict)
{
    // Even when the profiler says nothing is useless, the decay
    // selector still harvests dead dirty lines.
    EventQueue eq;
    MemoryController ctrl(eq, memConfig(beMellow().withSC()));
    LlcConfig cfg = llcConfig(true);
    cfg.selector = EagerSelector::DecayDeadBlock;
    cfg.deadAfterPeriods = 1;
    Llc llc(eq, cfg, ctrl, 7);

    llc.writebackFromUpper(LogicalAddr(0x40));
    // Uniform hits keep every stack position useful.
    for (unsigned pos = 0; pos < 4; ++pos) {
        for (int i = 0; i < 100; ++i)
            llc.access(LogicalAddr(0x1000 + pos * 16 * kBlockSize), false);
    }
    eq.run(eq.curTick() + Tick(1.6 * kMillisecond));
    EXPECT_GE(llc.stats().eagerSent.value(), 1u);
}
