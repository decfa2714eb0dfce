/** @file Integration tests for the three-level cache hierarchy. */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "cache/hierarchy.hh"
#include "mellow/policy.hh"
#include "nvm/controller.hh"
#include "sim/alloc_counter.hh"
#include "sim/event_queue.hh"

using namespace mellowsim;
using namespace mellowsim::policies;

namespace
{

MemControllerConfig
memConfig()
{
    MemControllerConfig c;
    c.geometry.numBanks = 4;
    c.geometry.numRanks = 2;
    c.geometry.capacityBytes = 1ull << 22;
    c.policy = norm();
    return c;
}

HierarchyConfig
smallHierarchy()
{
    HierarchyConfig c;
    c.l1 = {"L1D", 2 * 1024, 2, 1 * kNanosecond}; // 16 sets x 2
    c.l2 = {"L2", 8 * 1024, 4, 6 * kNanosecond};  // 32 sets x 4
    c.llc.cache = {"LLC", 32 * 1024, 8, Tick(17.5 * kNanosecond)};
    c.llcMshrs = 4;
    return c;
}

struct Fixture
{
    EventQueue eq;
    MemoryController ctrl;
    Hierarchy hier;
    Fixture()
        : ctrl(eq, memConfig()), hier(eq, smallHierarchy(), ctrl, 3)
    {
    }
    void run(Tick t = 10 * kMicrosecond) { eq.run(eq.curTick() + t); }
};

} // namespace

TEST(Hierarchy, ColdLoadMissesToMemoryThenHitsInL1)
{
    Fixture f;
    bool filled = false;
    AccessTicket t = f.hier.access(LogicalAddr(0x40), false, [&] { filled = true; });
    EXPECT_EQ(t.outcome, AccessOutcome::Miss);
    EXPECT_EQ(f.hier.stats().llcMisses.value(), 1u);
    f.run();
    EXPECT_TRUE(filled);

    AccessTicket t2 = f.hier.access(LogicalAddr(0x40), false, nullptr);
    EXPECT_EQ(t2.outcome, AccessOutcome::Hit);
    EXPECT_EQ(t2.latency, 1 * kNanosecond);
    EXPECT_EQ(f.hier.stats().l1Hits.value(), 1u);
}

TEST(Hierarchy, L2HitLatencyIsCumulative)
{
    Fixture f;
    f.hier.access(LogicalAddr(0x40), false, nullptr);
    f.run();
    // Evict 0x40 from the tiny L1 (16 sets): two more lines in the
    // same L1 set (stride = 16 blocks).
    f.hier.access(LogicalAddr(0x40 + 16 * kBlockSize), false, nullptr);
    f.run();
    f.hier.access(LogicalAddr(0x40 + 32 * kBlockSize), false, nullptr);
    f.run();
    AccessTicket t = f.hier.access(LogicalAddr(0x40), false, nullptr);
    EXPECT_EQ(t.outcome, AccessOutcome::Hit);
    EXPECT_EQ(t.latency, 7 * kNanosecond); // L1 + L2
    EXPECT_EQ(f.hier.stats().l2Hits.value(), 1u);
}

TEST(Hierarchy, StoreMissFetchesLineThenDirtiesL1)
{
    Fixture f;
    bool done = false;
    AccessTicket t = f.hier.access(LogicalAddr(0x80), true, [&] { done = true; });
    EXPECT_EQ(t.outcome, AccessOutcome::Miss);
    f.run();
    EXPECT_TRUE(done);
    // The store-miss generated a memory *read* (fill), no write yet.
    EXPECT_EQ(f.ctrl.stats().demandReads.value(), 1u);
    EXPECT_EQ(f.ctrl.stats().acceptedWritebacks.value(), 0u);
}

TEST(Hierarchy, DirtyLineWritesBackOnLlcEviction)
{
    Fixture f;
    // Dirty one line, then stream enough lines through the same LLC
    // set to evict it everywhere.
    f.hier.access(LogicalAddr(0x40), true, nullptr);
    f.run();
    // LLC: 64 sets x 8 ways; same-set stride is 64 blocks.
    for (int i = 1; i <= 12; ++i) {
        f.hier.access(LogicalAddr(0x40 +
                                  static_cast<Addr>(i) * 64 * kBlockSize),
                      false, nullptr);
        f.run();
    }
    EXPECT_GE(f.ctrl.stats().acceptedWritebacks.value(), 1u);
}

TEST(Hierarchy, MshrMergesSameBlockMisses)
{
    Fixture f;
    int completions = 0;
    auto cb = [&] { ++completions; };
    f.hier.access(LogicalAddr(0x100), false, cb);
    f.hier.access(LogicalAddr(0x100), true, cb);
    f.hier.access(LogicalAddr(0x11F), false, cb); // same block, odd offset
    EXPECT_EQ(f.hier.stats().llcMisses.value(), 1u);
    EXPECT_EQ(f.hier.stats().mshrMerges.value(), 2u);
    EXPECT_EQ(f.hier.outstandingMisses(), 1u);
    f.run();
    EXPECT_EQ(completions, 3);
    // One memory read served all three.
    EXPECT_EQ(f.ctrl.stats().demandReads.value(), 1u);
}

TEST(Hierarchy, MshrLimitBlocksAndRetries)
{
    Fixture f;
    int completions = 0;
    auto cb = [&] { ++completions; };
    for (int i = 0; i < 4; ++i) {
        AccessTicket t = f.hier.access(
            LogicalAddr(static_cast<Addr>(i) * 4096 + 0x40), false, cb);
        EXPECT_EQ(t.outcome, AccessOutcome::Miss);
    }
    AccessTicket blocked =
        f.hier.access(LogicalAddr(5 * 4096 + 0x40), false, cb);
    EXPECT_EQ(blocked.outcome, AccessOutcome::Blocked);
    EXPECT_EQ(f.hier.stats().blocked.value(), 1u);

    bool retried = false;
    f.hier.setRetryCallback([&] { retried = true; });
    f.run();
    EXPECT_TRUE(retried);
    EXPECT_EQ(completions, 4);
}

TEST(Hierarchy, MergedStoreDirtiesTheFill)
{
    Fixture f;
    f.hier.access(LogicalAddr(0x200), false, nullptr);
    f.hier.access(LogicalAddr(0x200), true, nullptr); // merged store
    f.run();
    // The L1 line must be dirty: evicting it must produce an L2 write.
    // Touch two more same-L1-set lines to evict 0x200 from L1.
    f.hier.access(LogicalAddr(0x200 + 16 * kBlockSize), false, nullptr);
    f.run();
    f.hier.access(LogicalAddr(0x200 + 32 * kBlockSize), false, nullptr);
    f.run();
    // ...then push it out of L2 (32 sets x 4 ways; stride 32 blocks)
    // and out of the LLC. Simplest check: the dirty bit still lives
    // somewhere below L1 — count dirty lines across arrays via LLC
    // eviction pressure later. Here we just assert no write back has
    // been *lost* (nothing reached memory yet).
    EXPECT_EQ(f.ctrl.stats().acceptedWritebacks.value(), 0u);
}

TEST(Hierarchy, PrimeInstallsInAllLevels)
{
    Fixture f;
    f.hier.prime(LogicalAddr(0x40), false);
    AccessTicket t = f.hier.access(LogicalAddr(0x40), false, nullptr);
    EXPECT_EQ(t.outcome, AccessOutcome::Hit);
    EXPECT_EQ(t.latency, 1 * kNanosecond);
    // Prime produced no stats and no memory traffic.
    EXPECT_EQ(f.hier.stats().llcMisses.value(), 0u);
    EXPECT_EQ(f.ctrl.stats().demandReads.value(), 0u);
}

TEST(Hierarchy, ReadLatencyIncludesLookupPath)
{
    Fixture f;
    Tick start = f.eq.curTick();
    Tick done_at = 0;
    f.hier.access(LogicalAddr(0x40), false, [&] { done_at = f.eq.curTick(); });
    f.run();
    // Lookup path 1+6+17.5 = 24.5 ns, memory read 142.5 ns.
    EXPECT_EQ(done_at - start, Tick(24.5 * kNanosecond) +
                                   Tick(142.5 * kNanosecond));
}

TEST(Hierarchy, LlcMissRateMatchesStreamingPattern)
{
    Fixture f;
    // Stream 1000 distinct blocks: every access must miss the LLC.
    for (int i = 0; i < 1000; ++i) {
        f.hier.access(LogicalAddr(static_cast<Addr>(i + 100) * kBlockSize),
                      false,
                      nullptr);
        f.run(kMicrosecond);
    }
    EXPECT_EQ(f.hier.stats().llcMisses.value(), 1000u);
    EXPECT_EQ(f.hier.stats().l1Hits.value(), 0u);
}

TEST(Hierarchy, SteadyStateMissPathAllocatesNothing)
{
    // Misses, same-block merges, fills, dirty evictions and the MSHR
    // limit on a warm hierarchy: the MSHR table and its waiter pool
    // are reused, so nothing reaches the heap.
    Fixture f;
    std::uint64_t done = 0;
    Addr next = 0;
    auto round = [&] {
        for (int i = 0; i < 64; ++i) {
            LogicalAddr a(next);
            next = (next + 37 * kBlockSize) % (1ull << 21);
            bool store = i % 3 == 0;
            for (;;) {
                AccessTicket t =
                    f.hier.access(a, store, [&done] { ++done; });
                if (t.outcome != AccessOutcome::Blocked)
                    break;
                f.run(kMicrosecond);
            }
            // A merge into the miss just issued (a hit if it hit).
            f.hier.access(a, !store, [&done] { ++done; });
        }
        f.run();
    };
    // Ten rounds grow every pool on the path (the waiter pool, the
    // controller's queues, the event slabs) to its working size.
    for (int r = 0; r < 10; ++r)
        round();

    const HierarchyStats &s = f.hier.stats();
    const std::uint64_t misses = s.llcMisses.value();
    const std::uint64_t merges = s.mshrMerges.value();
    const std::uint64_t blocked = s.blocked.value();
    const std::uint64_t allocs = alloccounter::allocations();
    for (int r = 0; r < 20; ++r)
        round();
    EXPECT_EQ(alloccounter::allocations() - allocs, 0u);

    EXPECT_EQ(f.hier.outstandingMisses(), 0u);
    EXPECT_GT(s.llcMisses.value(), misses);
    EXPECT_GT(s.mshrMerges.value(), merges);
    EXPECT_GT(s.blocked.value(), blocked);
    EXPECT_GT(f.ctrl.stats().acceptedWritebacks.value(), 0u);
}

TEST(Hierarchy, FillCallbackCanTakeTheFreedMshr)
{
    Fixture f; // 4 MSHRs
    std::vector<int> order;
    AccessTicket reissued;
    std::size_t outstandingInCallback = 0;
    const LogicalAddr first(0x40);
    const LogicalAddr other(9 * 4096 + 0x40);

    // Three waiters on the first miss. The first waiter's callback
    // misses on another block while the table is otherwise full.
    f.hier.access(first, false, [&] {
        order.push_back(1);
        outstandingInCallback = f.hier.outstandingMisses();
        reissued = f.hier.access(other, false, [&] { order.push_back(4); });
    });
    f.hier.access(first, true, [&] { order.push_back(2); });
    f.hier.access(first, false, [&] { order.push_back(3); });
    // Fill the rest of the table a little later, so the first block's
    // read departs, and returns, first.
    f.run(10 * kNanosecond);
    for (int i = 1; i < 4; ++i) {
        AccessTicket t = f.hier.access(
            LogicalAddr(static_cast<Addr>(i) * 4096 + 0x40), false,
            nullptr);
        EXPECT_EQ(t.outcome, AccessOutcome::Miss);
    }
    EXPECT_EQ(f.hier.access(other, false, nullptr).outcome,
              AccessOutcome::Blocked);

    f.run();
    EXPECT_EQ(outstandingInCallback, 3u);
    EXPECT_EQ(reissued.outcome, AccessOutcome::Miss);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(f.hier.outstandingMisses(), 0u);
}

TEST(Hierarchy, PrimeBatchMatchesPerOpPrime)
{
    // Level-major priming of a stream must leave every level exactly
    // as priming it one op at a time does: same lines, same recency
    // order, same dirty bits.
    std::mt19937_64 rng(11);
    std::vector<PrimeOp> ops(20'000);
    for (PrimeOp &op : ops) {
        const Addr byte = (rng() % 4096) * kBlockSize + rng() % 64;
        op = PrimeOp(LogicalAddr(byte), rng() % 4 == 0);
    }

    Fixture perOp;
    for (const PrimeOp &op : ops)
        perOp.hier.prime(op.block(), op.isWrite());
    Fixture batched;
    PrimeScratch scratch = batched.hier.primeScratch(0);
    std::span<const PrimeOp> rest(ops);
    for (std::size_t chunk = 1; !rest.empty(); chunk = chunk * 3 + 1) {
        std::size_t n = std::min(chunk, rest.size());
        batched.hier.prime(rest.first(n), scratch);
        rest = rest.subspan(n);
    }

    auto expectSame = [](const SetAssocCache &a, const SetAssocCache &b) {
        ASSERT_EQ(a.numSets(), b.numSets());
        for (std::uint64_t s = 0; s < a.numSets(); ++s) {
            ASSERT_EQ(a.dirtyMask(s), b.dirtyMask(s)) << "set " << s;
            for (unsigned pos = 0; pos < a.assoc(); ++pos) {
                const CacheLine la = a.line(s, pos);
                const CacheLine lb = b.line(s, pos);
                ASSERT_EQ(la.valid, lb.valid);
                ASSERT_EQ(la.blockAddr, lb.blockAddr);
                ASSERT_EQ(la.dirty, lb.dirty);
                ASSERT_EQ(la.eagerCleaned, lb.eagerCleaned);
                ASSERT_EQ(la.touchStamp, lb.touchStamp);
            }
        }
    };
    expectSame(perOp.hier.l1(), batched.hier.l1());
    expectSame(perOp.hier.l2(), batched.hier.l2());
    expectSame(perOp.hier.llc().array(), batched.hier.llc().array());
    EXPECT_GT(batched.hier.llc().array().countDirtyLines(), 0u);
}
