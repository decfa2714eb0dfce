/** @file Integration tests for the memory controller. */

#include <gtest/gtest.h>

#include <vector>

#include "mellow/policy.hh"
#include "nvm/controller.hh"
#include "sim/alloc_counter.hh"
#include "sim/event_queue.hh"

using namespace mellowsim;
using namespace mellowsim::policies;

namespace
{

/**
 * Small geometry: 4 banks, 2 ranks, 1 MB, 1 KB row buffers,
 * block-granularity interleave so bankAddr() below can place
 * requests on exact banks.
 */
MemControllerConfig
smallConfig(const WritePolicyConfig &policy)
{
    MemControllerConfig c;
    c.geometry.numBanks = 4;
    c.geometry.numRanks = 2;
    c.geometry.capacityBytes = 1ull << 20;
    c.geometry.interleaveBytes = kBlockSize;
    c.geometry.pageScramble = false;
    c.policy = policy;
    return c;
}

/** Address in a given bank/in-bank block (block interleave). */
LogicalAddr
bankAddr(unsigned bank, std::uint64_t blockInBank, unsigned numBanks = 4)
{
    return LogicalAddr((blockInBank * numBanks + bank) * kBlockSize);
}

constexpr Tick kReadMiss = Tick(142.5 * kNanosecond); // tRCD+tCAS+burst
constexpr Tick kReadHit = Tick(22.5 * kNanosecond);   // tCAS+burst

struct Fixture
{
    EventQueue eq;
    MemoryController ctrl;
    explicit Fixture(const WritePolicyConfig &policy)
        : ctrl(eq, smallConfig(policy))
    {
    }
    void runFor(Tick t) { eq.run(eq.curTick() + t); }
};

} // namespace

TEST(Controller, ReadMissLatency)
{
    Fixture f{norm()};
    Tick done = 0;
    f.ctrl.read(bankAddr(0, 0), [&] { done = f.eq.curTick(); });
    f.runFor(kMicrosecond);
    EXPECT_EQ(done, kReadMiss);
    EXPECT_EQ(f.ctrl.stats().issuedReads.value(), 1u);
    EXPECT_EQ(f.ctrl.stats().rowMissReads.value(), 1u);
}

TEST(Controller, RowBufferHitIsFaster)
{
    Fixture f{norm()};
    std::vector<Tick> done;
    // Two blocks in the same 1 KB row-buffer segment of bank 0.
    f.ctrl.read(bankAddr(0, 0), [&] { done.push_back(f.eq.curTick()); });
    f.runFor(kMicrosecond);
    f.ctrl.read(bankAddr(0, 1), [&] { done.push_back(f.eq.curTick()); });
    f.runFor(kMicrosecond);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[1] - done[0] - (kMicrosecond - kReadMiss), kReadHit);
    EXPECT_EQ(f.ctrl.stats().rowHitReads.value(), 1u);
}

TEST(Controller, DifferentRowSegmentMisses)
{
    Fixture f{norm()};
    f.ctrl.read(bankAddr(0, 0), [] {});
    f.runFor(kMicrosecond);
    // Block 16 of bank 0 is in the next 1 KB segment.
    f.ctrl.read(bankAddr(0, 16), [] {});
    f.runFor(kMicrosecond);
    EXPECT_EQ(f.ctrl.stats().rowMissReads.value(), 2u);
    EXPECT_EQ(f.ctrl.stats().rowHitReads.value(), 0u);
}

TEST(Controller, BanksOperateInParallel)
{
    Fixture f{norm()};
    std::vector<Tick> done;
    for (unsigned b = 0; b < 4; ++b) {
        f.ctrl.read(bankAddr(b, 0),
                    [&] { done.push_back(f.eq.curTick()); });
    }
    f.runFor(kMicrosecond);
    ASSERT_EQ(done.size(), 4u);
    // Bank accesses overlap; only the bus serialises the four bursts.
    EXPECT_EQ(done[0], kReadMiss);
    EXPECT_LT(done[3], 2 * kReadMiss);
    EXPECT_EQ(done[3] - done[0], 3 * Tick(20 * kNanosecond));
}

TEST(Controller, WriteIssuesWhenNoReads)
{
    Fixture f{norm()};
    f.ctrl.writeback(bankAddr(1, 5));
    f.runFor(kMicrosecond);
    EXPECT_EQ(f.ctrl.stats().issuedNormalWrites.value(), 1u);
    EXPECT_EQ(f.ctrl.stats().issuedSlowWrites.value(), 0u);
    const BankWearStats &w = f.ctrl.wearTracker().bankStats(BankId(1));
    EXPECT_EQ(w.normalWrites, 1u);
    EXPECT_EQ(w.slowWrites, 0u);
}

TEST(Controller, SlowPolicyIssuesSlowWrites)
{
    Fixture f{slow()};
    f.ctrl.writeback(bankAddr(1, 5));
    f.runFor(kMicrosecond);
    EXPECT_EQ(f.ctrl.stats().issuedSlowWrites.value(), 1u);
    EXPECT_EQ(f.ctrl.wearTracker().bankStats(BankId(1)).slowWrites, 1u);
}

TEST(Controller, BankAwareSingleWriteGoesSlow)
{
    Fixture f{bMellow()};
    f.ctrl.writeback(bankAddr(2, 3));
    f.runFor(kMicrosecond);
    EXPECT_EQ(f.ctrl.stats().issuedSlowWrites.value(), 1u);
}

TEST(Controller, BankAwareMultipleWritesGoNormal)
{
    Fixture f{bMellow()};
    // Three writes arrive together for the same bank: the first two
    // issue while a peer is still queued -> normal; the last one is
    // alone -> slow (exactly the Figure 4/5 behaviour).
    f.ctrl.writeback(bankAddr(2, 3));
    f.ctrl.writeback(bankAddr(2, 4));
    f.ctrl.writeback(bankAddr(2, 5));
    f.runFor(10 * kMicrosecond);
    EXPECT_EQ(f.ctrl.stats().issuedNormalWrites.value(), 2u);
    EXPECT_EQ(f.ctrl.stats().issuedSlowWrites.value(), 1u);
}

TEST(Controller, ReadsBlockWritesToSameBank)
{
    Fixture f{norm()};
    // Saturate bank 0 with a chain of reads; a write to bank 0 must
    // wait, while a write to bank 1 proceeds.
    for (int i = 0; i < 6; ++i)
        f.ctrl.read(bankAddr(0, static_cast<std::uint64_t>(i) * 16),
                    [] {});
    f.ctrl.writeback(bankAddr(0, 99));
    f.ctrl.writeback(bankAddr(1, 99));
    // After two read slots, reads for bank 0 still queue, yet the
    // bank-1 write has already issued (and by 4 read times, retired).
    f.runFor(2 * kReadMiss);
    EXPECT_EQ(f.ctrl.stats().issuedNormalWrites.value(), 1u);
    f.runFor(2 * kReadMiss);
    const BankWearStats &b1 = f.ctrl.wearTracker().bankStats(BankId(1));
    EXPECT_EQ(b1.normalWrites, 1u);
    // Eventually the bank-0 write drains too.
    f.runFor(2 * kMicrosecond);
    EXPECT_EQ(f.ctrl.stats().issuedNormalWrites.value(), 2u);
}

TEST(Controller, ReadForwardedFromPendingWrite)
{
    Fixture f{norm()};
    // Park a write behind read traffic so it stays queued.
    f.ctrl.read(bankAddr(0, 0), [] {});
    f.ctrl.writeback(bankAddr(0, 42));
    Tick done = 0;
    f.ctrl.read(bankAddr(0, 42), [&] { done = f.eq.curTick(); });
    f.runFor(kMicrosecond);
    EXPECT_EQ(f.ctrl.stats().forwardedReads.value(), 1u);
    EXPECT_EQ(done, Tick(22.5 * kNanosecond));
    // The forwarded read is a demand read but never issues to a bank.
    EXPECT_EQ(f.ctrl.stats().demandReads.value(), 2u);
    EXPECT_EQ(f.ctrl.stats().issuedReads.value(), 2u - 1u);
}

TEST(Controller, WriteDrainEntersAndExits)
{
    MemControllerConfig cfg = smallConfig(norm());
    cfg.writeQueueSize = 8;
    cfg.drainLowThreshold = 4;
    EventQueue eq;
    MemoryController ctrl(eq, cfg);
    // All writes target one bank so the drain takes real time.
    for (std::uint64_t i = 0; i < 8; ++i)
        ctrl.writeback(bankAddr(0, i * 16));
    EXPECT_TRUE(ctrl.draining());
    EXPECT_EQ(ctrl.stats().drainEntries.value(), 1u);
    eq.run(eq.curTick() + 10 * kMicrosecond);
    ctrl.finalize();
    EXPECT_FALSE(ctrl.draining());
    EXPECT_GT(ctrl.drainTimeFraction(), 0.0);
    EXPECT_LT(ctrl.drainTimeFraction(), 1.0);
}

TEST(Controller, DrainPrioritizesWritesOverReads)
{
    MemControllerConfig cfg = smallConfig(norm());
    cfg.writeQueueSize = 4;
    cfg.drainLowThreshold = 1;
    EventQueue eq;
    MemoryController ctrl(eq, cfg);
    // Fill the write queue for bank 0, then present a read.
    for (std::uint64_t i = 0; i < 4; ++i)
        ctrl.writeback(bankAddr(0, i));
    ASSERT_TRUE(ctrl.draining());
    Tick read_done = 0;
    ctrl.read(bankAddr(0, 99), [&] { read_done = eq.curTick(); });
    eq.run(eq.curTick() + 10 * kMicrosecond);
    // Three writes (170 ns each) must retire before the read gets the
    // bank (drain exits at occupancy 1, then the read outranks the
    // last write).
    EXPECT_GT(read_done, 3 * Tick(170 * kNanosecond));
}

TEST(Controller, CancellationAbortsSlowWriteForRead)
{
    Fixture f{slow().withSC()};
    f.ctrl.writeback(bankAddr(0, 7));
    // Let the write start its (450 ns) pulse.
    f.runFor(100 * kNanosecond);
    Tick read_done = 0;
    f.ctrl.read(bankAddr(0, 500),
                [&] { read_done = f.eq.curTick(); });
    // Past the cancelled attempt's completion tick (20 ns burst + 450
    // ns pulse), whose stale event must not complete the retry.
    const Tick cancelled_end = Tick(470 * kNanosecond);
    f.eq.run(cancelled_end + 1);
    const Bank &bank = f.ctrl.bank(BankId(0));
    const BankWearStats &w = f.ctrl.wearTracker().bankStats(BankId(0));
    ASSERT_TRUE(bank.writeInFlight());
    const Tick retry_end = bank.busyUntil();
    EXPECT_GT(retry_end, cancelled_end + 1);
    EXPECT_EQ(w.slowWrites, 0u);
    // The retry completes exactly once, at its own end tick.
    f.eq.run(retry_end);
    EXPECT_TRUE(bank.writeInFlight());
    EXPECT_EQ(w.slowWrites, 0u);
    f.eq.run(retry_end + 1);
    EXPECT_FALSE(bank.writeInFlight());
    EXPECT_EQ(w.slowWrites, 1u);
    f.runFor(10 * kMicrosecond);
    EXPECT_EQ(f.ctrl.stats().cancelledWrites.value(), 1u);
    // The read proceeded at cancellation, not after the 470 ns write.
    EXPECT_LT(read_done, 100 * kNanosecond + kReadMiss + kReadHit);
    // The write retried: two slow issues for one writeback.
    EXPECT_EQ(f.ctrl.stats().issuedSlowWrites.value(), 2u);
    // Cancelled attempt wears partially.
    EXPECT_EQ(w.cancelledWrites, 1u);
    EXPECT_EQ(w.slowWrites, 1u);
}

TEST(Controller, NonCancellableWriteMakesReadWait)
{
    Fixture f{slow()}; // no +SC
    f.ctrl.writeback(bankAddr(0, 7));
    f.runFor(100 * kNanosecond);
    Tick read_done = 0;
    f.ctrl.read(bankAddr(0, 500), [&] { read_done = f.eq.curTick(); });
    f.runFor(10 * kMicrosecond);
    EXPECT_EQ(f.ctrl.stats().cancelledWrites.value(), 0u);
    // Write busy until 20 ns (burst) + 450 ns pulse = 470 ns.
    EXPECT_GE(read_done, Tick(470 * kNanosecond) + kReadMiss);
}

TEST(Controller, EagerQueueCapacityEnforced)
{
    Fixture f{beMellow().withSC()};
    // Saturate every bank with reads so eager writes cannot issue.
    for (unsigned b = 0; b < 4; ++b) {
        for (int i = 0; i < 4; ++i) {
            f.ctrl.read(bankAddr(b, static_cast<std::uint64_t>(i) * 32),
                        [] {});
        }
    }
    unsigned accepted = 0;
    for (std::uint64_t i = 0; i < 20; ++i) {
        if (f.ctrl.eagerWrite(bankAddr(0, 200 + i)))
            ++accepted;
    }
    EXPECT_EQ(accepted, 16u);
    EXPECT_FALSE(f.ctrl.eagerQueueHasSpace());
    EXPECT_EQ(f.ctrl.stats().rejectedEager.value(), 4u);
}

TEST(Controller, EagerWritesIssueSlowOnIdleBanks)
{
    Fixture f{beMellow().withSC()};
    ASSERT_TRUE(f.ctrl.eagerWrite(bankAddr(3, 9)));
    f.runFor(kMicrosecond);
    EXPECT_EQ(f.ctrl.stats().issuedEagerSlow.value(), 1u);
    EXPECT_EQ(f.ctrl.wearTracker().bankStats(BankId(3)).slowWrites, 1u);
}

TEST(Controller, ENormIssuesEagerWritesAtNormalSpeed)
{
    Fixture f{eNorm().withNC()};
    ASSERT_TRUE(f.ctrl.eagerWrite(bankAddr(3, 9)));
    f.runFor(kMicrosecond);
    EXPECT_EQ(f.ctrl.stats().issuedEagerNormal.value(), 1u);
    EXPECT_EQ(f.ctrl.stats().issuedEagerSlow.value(), 0u);
}

TEST(Controller, DemandWriteSuppressesEagerForSameBank)
{
    Fixture f{beMellow().withSC()};
    f.ctrl.eagerWrite(bankAddr(2, 9));
    f.ctrl.writeback(bankAddr(2, 10));
    f.runFor(kMicrosecond);
    // Demand write went first (as a slow bank-aware write); the eager
    // write followed once the bank had no demand traffic.
    EXPECT_EQ(f.ctrl.stats().issuedSlowWrites.value(), 1u);
    EXPECT_EQ(f.ctrl.stats().issuedEagerSlow.value(), 1u);
}

TEST(Controller, WearQuotaForcesSlowWritesUnderLoad)
{
    MemControllerConfig cfg = smallConfig(norm().withWQ());
    // Tiny capacity -> tiny per-period wear budget; 500 us periods.
    cfg.geometry.capacityBytes = 4 * 1024 * kBlockSize; // 1024 blk/bank
    EventQueue eq;
    MemoryController ctrl(eq, cfg);
    // Write steadily for many periods.
    for (int period = 0; period < 8; ++period) {
        for (std::uint64_t i = 0; i < 200; ++i)
            ctrl.writeback(bankAddr(static_cast<unsigned>(i % 4),
                                    i / 4));
        eq.run(eq.curTick() + 500 * kMicrosecond);
    }
    eq.run(eq.curTick() + 4 * kMillisecond);
    ASSERT_NE(ctrl.wearQuota(), nullptr);
    EXPECT_GT(ctrl.stats().issuedSlowWrites.value(), 0u);
    EXPECT_GT(ctrl.wearQuota()->slowOnlyPeriods(BankId(0)), 0u);
}

TEST(Controller, NoQuotaObjectWithoutWQ)
{
    Fixture f{norm()};
    EXPECT_EQ(f.ctrl.wearQuota(), nullptr);
}

TEST(Controller, BankUtilizationTracksBusyTime)
{
    Fixture f{norm()};
    f.ctrl.writeback(bankAddr(0, 1));
    f.runFor(kMicrosecond);
    f.ctrl.finalize();
    // Bank 0 busy for burst+pulse = 170 ns out of 1000 ns.
    EXPECT_NEAR(f.ctrl.bankUtilization(BankId(0)), 0.17, 0.01);
    EXPECT_NEAR(f.ctrl.avgBankUtilization(), 0.17 / 4, 0.005);
}

TEST(Controller, TfawLimitsActivateBursts)
{
    Fixture f{norm()};
    std::vector<Tick> done;
    // Five row-miss reads to five different banks... only 2 ranks x
    // 2 banks, so use bank 0/1 (rank 0) with distinct segments:
    // 5 activates on rank 0 -> the 5th waits for tFAW (50 ns).
    for (int i = 0; i < 5; ++i) {
        unsigned bank = static_cast<unsigned>(i % 2);
        std::uint64_t seg = static_cast<std::uint64_t>(i) * 64;
        f.ctrl.read(bankAddr(bank, seg),
                    [&] { done.push_back(f.eq.curTick()); });
    }
    f.runFor(10 * kMicrosecond);
    ASSERT_EQ(done.size(), 5u);
    // First four activates start immediately (banks ping-pong as they
    // free); the fifth cannot start before tick 50 ns.
    EXPECT_GE(done[4], Tick(50 * kNanosecond) + kReadMiss);
}

TEST(Controller, RejectsBadConfig)
{
    EventQueue eq;
    MemControllerConfig cfg = smallConfig(norm());
    cfg.drainLowThreshold = cfg.writeQueueSize;
    EXPECT_THROW(MemoryController(eq, cfg), FatalError);

    cfg = smallConfig(norm());
    cfg.policy.slowFactor = 0.5;
    EXPECT_THROW(MemoryController(eq, cfg), FatalError);
}

TEST(Controller, AdaptiveLatencyPicksFactorByQuietTime)
{
    EnduranceModel model;
    Fixture f{bMellow().withSC().withML()};

    // Bank 3 never read: the full 3x factor applies.
    f.ctrl.writeback(bankAddr(3, 7));
    f.runFor(kMicrosecond);
    EXPECT_NEAR(f.ctrl.wearTracker().bankStats(BankId(3)).wearUnits,
                model.wearPerWriteFactor(PulseFactor(3.0)), 1e-12);

    // Bank 2 read 350 ns before the write: 3x (450 ns) does not fit
    // the quiet time, 2x (300 ns) does.
    f.ctrl.read(bankAddr(2, 0), [] {});
    f.runFor(Tick(350 * kNanosecond));
    f.ctrl.writeback(bankAddr(2, 9));
    f.runFor(2 * kMicrosecond);
    EXPECT_NEAR(f.ctrl.wearTracker().bankStats(BankId(2)).wearUnits,
                model.wearPerWriteFactor(PulseFactor(2.0)), 1e-12);
    EXPECT_EQ(f.ctrl.stats().issuedSlowWrites.value(), 2u);
}

TEST(Controller, AdaptiveLatencyKeepsQuotaWritesAtFullSlow)
{
    // Quota-forced slow writes must not be shortened by +ML.
    EnduranceModel model;
    MemControllerConfig cfg =
        smallConfig(norm().withWQ().withML({1.5, 3.0}));
    cfg.geometry.capacityBytes = 4 * 1024 * kBlockSize;
    EventQueue eq;
    MemoryController ctrl(eq, cfg);
    // Cold-start slow-only is active before the first boundary.
    ctrl.writeback(LogicalAddr((5 * 4 + 1) * kBlockSize)); // bank 1
    eq.run(eq.curTick() + 2 * kMicrosecond);
    EXPECT_NEAR(ctrl.wearTracker().bankStats(BankId(1)).wearUnits,
                model.wearPerWriteFactor(PulseFactor(3.0)), 1e-12);
}

TEST(Controller, WritePausingServicesReadThenResumes)
{
    Fixture f{slow().withWP()};
    f.ctrl.writeback(bankAddr(0, 7));
    f.runFor(100 * kNanosecond); // pulse under way
    Tick read_done = 0;
    f.ctrl.read(bankAddr(0, 500), [&] { read_done = f.eq.curTick(); });
    // Past the paused pulse's original completion tick (20 ns burst +
    // 450 ns pulse), whose stale event must not complete the resume.
    const Tick paused_end = Tick(470 * kNanosecond);
    f.eq.run(paused_end + 1);
    const Bank &bank = f.ctrl.bank(BankId(0));
    const BankWearStats &w = f.ctrl.wearTracker().bankStats(BankId(0));
    EXPECT_EQ(f.ctrl.stats().resumedWrites.value(), 1u);
    ASSERT_TRUE(bank.writeInFlight());
    const Tick resume_end = bank.busyUntil();
    EXPECT_GT(resume_end, paused_end + 1);
    EXPECT_EQ(w.slowWrites, 0u);
    // The resumed write completes exactly once, at its own end tick.
    f.eq.run(resume_end);
    EXPECT_TRUE(bank.writeInFlight());
    EXPECT_EQ(w.slowWrites, 0u);
    f.eq.run(resume_end + 1);
    EXPECT_FALSE(bank.writeInFlight());
    EXPECT_EQ(w.slowWrites, 1u);
    f.runFor(10 * kMicrosecond);
    EXPECT_EQ(w.slowWrites, 1u);
    EXPECT_EQ(f.ctrl.stats().pausedWrites.value(), 1u);
    EXPECT_EQ(f.ctrl.stats().resumedWrites.value(), 1u);
    EXPECT_EQ(f.ctrl.stats().cancelledWrites.value(), 0u);
    // The read proceeded promptly (pause at 100 ns + read 142.5 ns).
    EXPECT_EQ(read_done, 100 * kNanosecond + kReadMiss);
    // One slow attempt only, one completed slow write's wear.
    EXPECT_EQ(f.ctrl.stats().issuedSlowWrites.value(), 1u);
    EnduranceModel model;
    EXPECT_NEAR(f.ctrl.wearTracker().bankStats(BankId(0)).wearUnits,
                model.wearPerWriteFactor(PulseFactor(3.0)), 1e-12);
}

TEST(Controller, PausingBeatsCancellationOnWear)
{
    // Same scenario under +SC loses pulse time to the retry.
    Fixture fp{slow().withWP()};
    Fixture fc{slow().withSC()};
    for (Fixture *f : {&fp, &fc}) {
        f->ctrl.writeback(bankAddr(0, 7));
        f->runFor(100 * kNanosecond);
        f->ctrl.read(bankAddr(0, 500), [] {});
        f->runFor(10 * kMicrosecond);
    }
    EXPECT_LT(fp.ctrl.wearTracker().bankStats(BankId(0)).wearUnits,
              fc.ctrl.wearTracker().bankStats(BankId(0)).wearUnits);
}

TEST(Controller, PausedWriteBlocksNewWritesUntilResumed)
{
    Fixture f{slow().withWP()};
    f.ctrl.writeback(bankAddr(0, 7));
    f.runFor(100 * kNanosecond);
    f.ctrl.read(bankAddr(0, 500), [] {}); // pauses the write
    f.ctrl.writeback(bankAddr(0, 8));     // must wait for the resume
    f.runFor(10 * kMicrosecond);
    // Both writes completed, in order, with two slow issues total.
    EXPECT_EQ(f.ctrl.stats().issuedSlowWrites.value(), 2u);
    EXPECT_EQ(f.ctrl.wearTracker().bankStats(BankId(0)).slowWrites, 2u);
    EXPECT_EQ(f.ctrl.stats().resumedWrites.value(), 1u);
}

TEST(Controller, SteadyStateSchedulingAllocatesNothing)
{
    // Every scheduler pass walks the non-empty bank sets. Warm the
    // queues, the event slabs and the wear state with two rounds of a
    // read/write/eager mix that cancels slow writes; after that,
    // further rounds and their thousands of passes allocate nothing.
    Fixture f{beMellow().withSC()};
    std::uint64_t delivered = 0;
    std::uint64_t block = 0;
    auto round = [&] {
        for (unsigned i = 0; i < 64; ++i) {
            unsigned bank = i % 4;
            f.ctrl.read(bankAddr(bank, block),
                        [&delivered] { ++delivered; });
            f.ctrl.writeback(bankAddr(bank, block + 1));
            (void)f.ctrl.eagerWrite(bankAddr((bank + 1) % 4, block + 2));
            block = (block + 3) % 4000;
            f.runFor(50 * kNanosecond);
        }
        f.runFor(20 * kMicrosecond);
    };
    round();
    round();

    const MemControllerStats &s = f.ctrl.stats();
    const std::uint64_t reads = s.issuedReads.value();
    const std::uint64_t writes =
        s.issuedSlowWrites.value() + s.issuedNormalWrites.value();
    const std::uint64_t eager =
        s.issuedEagerSlow.value() + s.issuedEagerNormal.value();
    const std::uint64_t cancelled = s.cancelledWrites.value();
    const std::uint64_t allocs = alloccounter::allocations();
    for (int r = 0; r < 20; ++r)
        round();
    EXPECT_EQ(alloccounter::allocations() - allocs, 0u);

    // The measured rounds exercised every kind of pass.
    EXPECT_EQ(delivered, 22u * 64u);
    EXPECT_GT(s.issuedReads.value(), reads);
    EXPECT_GT(s.issuedSlowWrites.value() + s.issuedNormalWrites.value(),
              writes);
    EXPECT_GT(s.issuedEagerSlow.value() + s.issuedEagerNormal.value(),
              eager);
    EXPECT_GT(s.cancelledWrites.value(), cancelled);
}
