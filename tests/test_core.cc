/** @file Tests for the trace-driven core model. */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "cpu/core.hh"
#include "nvm/controller.hh"
#include "mellow/policy.hh"
#include "sim/logging.hh"

using namespace mellowsim;

namespace
{

/** Scripted workload: replays a fixed list of ops, then idles. */
class ScriptWorkload : public Workload
{
  public:
    explicit ScriptWorkload(std::deque<Op> ops) : _ops(std::move(ops))
    {
        _info.name = "script";
    }

    Op
    next() override
    {
        if (_ops.empty()) {
            Op idle;
            idle.gap = 1000;
            idle.addr = (_fill++ % 4096) * kBlockSize;
            return idle;
        }
        Op op = _ops.front();
        _ops.pop_front();
        return op;
    }

    const WorkloadInfo &info() const override { return _info; }

  private:
    std::deque<Op> _ops;
    WorkloadInfo _info;
    std::uint64_t _fill = 0;
};

Op
op(std::uint32_t gap, bool write, Addr addr, bool dep = false)
{
    Op o;
    o.gap = gap;
    o.isWrite = write;
    o.addr = addr;
    o.dependsOnPrev = dep;
    return o;
}

MemControllerConfig
memConfig()
{
    MemControllerConfig c;
    c.geometry.numBanks = 4;
    c.geometry.numRanks = 2;
    c.geometry.capacityBytes = 1ull << 22;
    c.policy = policies::norm();
    return c;
}

struct Fixture
{
    EventQueue eq;
    MemoryController ctrl;
    Hierarchy hier;
    ScriptWorkload wl;
    TraceCore core;

    Fixture(std::deque<Op> ops, CoreConfig cc = CoreConfig{})
        : ctrl(eq, memConfig()), hier(eq, HierarchyConfig{}, ctrl, 3),
          wl(std::move(ops)), core(eq, cc, wl, hier)
    {
    }

    void
    runToDone(std::uint64_t instrs)
    {
        core.start(instrs);
        while (!core.done() && eq.step()) {
        }
        ASSERT_TRUE(core.done());
    }
};

/**
 * Memory whose reads complete at scripted absolute ticks: the n-th
 * read delivers at doneAt[n].
 */
class ScriptedPort : public MemoryPort
{
  public:
    ScriptedPort(EventQueue &eq, std::vector<Tick> doneAt)
        : _eq(eq), _doneAt(std::move(doneAt))
    {
    }

    void
    read(LogicalAddr, ReadCallback onComplete) override
    {
        ASSERT_LT(reads, _doneAt.size());
        _eq.schedule(_doneAt[reads++], std::move(onComplete));
    }
    void writeback(LogicalAddr) override {}
    bool eagerWrite(LogicalAddr) override { return false; }
    [[nodiscard]] bool eagerQueueHasSpace() const override
    {
        return false;
    }

    std::size_t reads = 0;

  private:
    EventQueue &_eq;
    std::vector<Tick> _doneAt;
};

/** A core over the default hierarchy and a ScriptedPort. */
struct ScriptedFixture
{
    EventQueue eq;
    ScriptedPort port;
    Hierarchy hier;
    ScriptWorkload wl;
    TraceCore core;

    ScriptedFixture(std::deque<Op> ops, std::vector<Tick> doneAt,
                    CoreConfig cc)
        : port(eq, std::move(doneAt)),
          hier(eq, HierarchyConfig{}, port, 3), wl(std::move(ops)),
          core(eq, cc, wl, hier)
    {
    }
};

} // namespace

TEST(Core, PureComputeRunsAtIssueWidth)
{
    // One giant gap, no memory pressure: IPC == issue width.
    std::deque<Op> ops;
    for (int i = 0; i < 100; ++i)
        ops.push_back(op(799, false, 0x40)); // L1-resident block
    Fixture f(std::move(ops));
    f.hier.prime(LogicalAddr(0x40), false); // avoid the single cold miss
    f.runToDone(80'000);
    EXPECT_NEAR(f.core.ipc(), 8.0, 0.1);
}

TEST(Core, IpcRequiresFinishedRun)
{
    std::deque<Op> ops;
    Fixture f(std::move(ops));
    EXPECT_THROW((void)f.core.ipc(), PanicError);
}

TEST(Core, MemoryMissesReduceIpc)
{
    // Dependent cold misses with small gaps: IPC craters.
    std::deque<Op> ops;
    for (int i = 0; i < 200; ++i)
        ops.push_back(
            op(7, false, static_cast<Addr>(i + 64) * kBlockSize, true));
    Fixture f(std::move(ops));
    f.runToDone(1'500);
    // Each miss costs ~167 ns (~334 cycles) for 8 instructions.
    EXPECT_LT(f.core.ipc(), 0.2);
}

TEST(Core, IndependentMissesOverlap)
{
    // Same misses, but independent: MLP hides most of the latency.
    std::deque<Op> dep, indep;
    for (int i = 0; i < 200; ++i) {
        Addr a = static_cast<Addr>(i + 64) * kBlockSize;
        dep.push_back(op(7, false, a, true));
        indep.push_back(op(7, false, a, false));
    }
    Fixture fd(std::move(dep));
    fd.runToDone(1'500);
    Fixture fi(std::move(indep));
    fi.runToDone(1'500);
    EXPECT_GT(fi.core.ipc(), 2.5 * fd.core.ipc());
}

TEST(Core, StoresDoNotBlockRetirement)
{
    // A burst of store misses: the store buffer absorbs them (up to
    // the MSHR limit), so IPC stays far higher than the dependent-
    // load equivalent (~0.03 in MemoryMissesReduceIpc).
    std::deque<Op> ops;
    for (int i = 0; i < 64; ++i)
        ops.push_back(
            op(7, true, static_cast<Addr>(i + 64) * kBlockSize));
    Fixture f(std::move(ops));
    f.runToDone(512);
    EXPECT_GT(f.core.ipc(), 0.15);
    EXPECT_EQ(f.core.stats().stores, 64u);
}

TEST(Core, RobLimitStallsDistantLoads)
{
    CoreConfig small;
    small.robSize = 16;
    // A cold load followed by a long compute gap larger than the ROB:
    // the gap instructions cannot retire past the pending load.
    std::deque<Op> ops;
    ops.push_back(op(0, false, 64 * kBlockSize));
    ops.push_back(op(100, false, 0x40)); // 100 >> robSize
    Fixture f(std::move(ops), small);
    f.runToDone(102);
    EXPECT_GT(f.core.stats().robStalls, 0u);
    // Finish tick must cover the full miss latency (~167 ns).
    EXPECT_GT(f.core.finishTick(), Tick(160 * kNanosecond));
}

TEST(Core, MshrLimitCapsOutstandingMisses)
{
    CoreConfig cc;
    cc.maxOutstanding = 2;
    std::deque<Op> ops;
    for (int i = 0; i < 32; ++i)
        ops.push_back(
            op(0, false, static_cast<Addr>(i + 64) * kBlockSize));
    Fixture f(std::move(ops), cc);
    f.runToDone(30);
    EXPECT_GT(f.core.stats().mshrStalls, 0u);
}

TEST(Core, CountsLoadsAndStores)
{
    std::deque<Op> ops;
    ops.push_back(op(0, false, 0x40));
    ops.push_back(op(0, true, 0x40));
    ops.push_back(op(0, false, 0x80));
    Fixture f(std::move(ops));
    f.runToDone(3);
    EXPECT_EQ(f.core.stats().loads, 2u);
    EXPECT_EQ(f.core.stats().stores, 1u);
    EXPECT_EQ(f.core.stats().memOps, 3u);
    EXPECT_GE(f.core.stats().instructions, 3u);
}

TEST(Core, StartTwicePanics)
{
    Fixture f({});
    f.core.start(10);
    EXPECT_THROW(f.core.start(10), PanicError);
}

TEST(Core, ZeroInstructionLimitIsFatal)
{
    Fixture f({});
    EXPECT_THROW(f.core.start(0), FatalError);
}

TEST(Core, RejectsBadConfig)
{
    CoreConfig cc;
    cc.issueWidth = 0;
    EXPECT_THROW(Fixture({}, cc), FatalError);
    cc = CoreConfig{};
    cc.robSize = 0;
    EXPECT_THROW(Fixture({}, cc), FatalError);
    cc = CoreConfig{};
    cc.maxOutstanding = 0;
    EXPECT_THROW(Fixture({}, cc), FatalError);
}

TEST(Core, DependentRmwStoreDoesNotStallDispatch)
{
    // A load miss followed by a dependent store to the same block:
    // the store waits in the store buffer (its dirtying merges into
    // the load's MSHR), so dispatch finishes long before the miss
    // returns and only one memory read is generated.
    std::deque<Op> ops;
    ops.push_back(op(0, false, 64 * kBlockSize));
    ops.push_back(op(0, true, 64 * kBlockSize, true));
    Fixture f(std::move(ops));
    f.runToDone(2);
    EXPECT_LT(f.core.finishTick(), Tick(160 * kNanosecond));
    EXPECT_EQ(f.hier.stats().llcMisses.value(), 1u);
    EXPECT_EQ(f.hier.stats().mshrMerges.value(), 1u);
    EXPECT_EQ(f.core.stats().depStalls, 0u);
}

TEST(Core, DependentLoadStillStallsDispatch)
{
    // The chasing-load case keeps its dispatch stall.
    std::deque<Op> ops;
    ops.push_back(op(0, false, 64 * kBlockSize));
    ops.push_back(op(0, false, 128 * kBlockSize, true));
    Fixture f(std::move(ops));
    f.runToDone(2);
    EXPECT_GT(f.core.stats().depStalls, 0u);
    EXPECT_GE(f.core.finishTick(), Tick(160 * kNanosecond));
}

TEST(Core, LoadsCompletingOutOfOrderRetireInOrder)
{
    // Three independent load misses (8 instructions each, so one op
    // per 500 ps) dispatch at 0.5, 1.0 and 1.5 ns. A 32-instruction
    // op then dispatches at 3.5 ns with seq 56, 48 past the oldest
    // load: beyond the 32-entry ROB, so it stalls. Memory returns the
    // misses in reverse order. The two younger completions cannot
    // retire past the oldest load, so each only re-stalls; when the
    // oldest returns at 400 ns all three retire and the op issues.
    CoreConfig cc;
    cc.robSize = 32;
    const Addr hot = 0x40;
    std::deque<Op> ops;
    ops.push_back(op(7, false, 64 * kBlockSize));
    ops.push_back(op(7, false, 65 * kBlockSize));
    ops.push_back(op(7, false, 66 * kBlockSize));
    ops.push_back(op(31, false, hot));
    ScriptedFixture f(std::move(ops),
                      {400 * kNanosecond, 300 * kNanosecond,
                       200 * kNanosecond},
                      cc);
    f.hier.prime(LogicalAddr(hot), false);

    f.core.start(56);
    f.eq.run(250 * kNanosecond);
    EXPECT_EQ(f.port.reads, 3u);
    EXPECT_FALSE(f.core.done());
    EXPECT_EQ(f.core.stats().robStalls, 2u); // at 3.5 ns and 200 ns
    f.eq.run(350 * kNanosecond);
    EXPECT_FALSE(f.core.done());
    EXPECT_EQ(f.core.stats().robStalls, 3u); // and again at 300 ns
    f.eq.run(400 * kNanosecond + 1);
    ASSERT_TRUE(f.core.done());
    EXPECT_EQ(f.core.stats().robStalls, 3u);
    EXPECT_EQ(f.core.finishTick(), 400 * kNanosecond);
    EXPECT_EQ(f.core.stats().instructions, 56u);
    EXPECT_EQ(f.core.stats().loads, 4u);
}

TEST(Core, DoubleLoadCompletionPanics)
{
    // Loads 1 and 2 miss; a 32-instruction op then stalls on the ROB
    // behind load 1. Load 2's data returns first, at 200 ns, and stays
    // in the window behind load 1 until that returns at 300 ns. A
    // second completion for either is unknown, in the window or out.
    CoreConfig cc;
    cc.robSize = 32;
    std::deque<Op> ops;
    ops.push_back(op(7, false, 64 * kBlockSize));
    ops.push_back(op(7, false, 65 * kBlockSize));
    ops.push_back(op(31, false, 0x40));
    ScriptedFixture f(std::move(ops),
                      {300 * kNanosecond, 200 * kNanosecond}, cc);
    f.hier.prime(LogicalAddr(0x40), false);
    f.core.start(48);

    f.eq.run(200 * kNanosecond + 1);
    ASSERT_EQ(f.port.reads, 2u);
    EXPECT_THROW(f.core.onLoadComplete(2), PanicError); // in the window
    EXPECT_THROW(f.core.onLoadComplete(3), PanicError); // not issued yet

    f.eq.run(300 * kNanosecond + 1);
    ASSERT_TRUE(f.core.done());
    EXPECT_EQ(f.core.finishTick(), 300 * kNanosecond);
    EXPECT_THROW(f.core.onLoadComplete(1), PanicError); // retired
}
