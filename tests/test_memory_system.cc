/** @file Tests for the multi-channel memory system. */

#include <gtest/gtest.h>

#include <set>

#include "mellow/policy.hh"
#include "nvm/memory_system.hh"
#include "sim/event_queue.hh"
#include "system/runner.hh"
#include "system/system.hh"

using namespace mellowsim;
using namespace mellowsim::policies;

namespace
{

MemorySystemConfig
config(unsigned channels, const WritePolicyConfig &policy = norm())
{
    MemorySystemConfig c;
    c.numChannels = channels;
    c.channel.geometry.numBanks = 4;
    c.channel.geometry.numRanks = 2;
    c.channel.geometry.capacityBytes = 4ull << 20;
    c.channel.geometry.pageScramble = false;
    c.channel.policy = policy;
    return c;
}

} // namespace

TEST(MemorySystem, SingleChannelPassesThrough)
{
    EventQueue eq;
    MemorySystem mem(eq, config(1));
    EXPECT_EQ(mem.numChannels(), 1u);
    Tick done = 0;
    mem.read(LogicalAddr(0x0), [&] { done = eq.curTick(); });
    eq.run(eq.curTick() + kMicrosecond);
    EXPECT_EQ(done, Tick(142.5 * kNanosecond));
    EXPECT_EQ(mem.channel(ChannelId(0)).stats().issuedReads.value(), 1u);
}

TEST(MemorySystem, ChunksInterleaveAcrossChannels)
{
    EventQueue eq;
    MemorySystem mem(eq, config(2));
    const std::uint64_t chunk = 16 * 1024; // interleave granularity
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(mem.channelOf(LogicalAddr(static_cast<Addr>(i) * chunk))
                      .value(),
                  i % 2);
    // Blocks within a chunk stay on one channel.
    EXPECT_EQ(mem.channelOf(LogicalAddr(64)), mem.channelOf(LogicalAddr(0)));
}

TEST(MemorySystem, LocalAddressesAreDense)
{
    EventQueue eq;
    MemorySystem mem(eq, config(2));
    const std::uint64_t chunk = 16 * 1024;
    // Channel 0 sees chunks 0, 2, 4... at local chunks 0, 1, 2...
    EXPECT_EQ(mem.localAddr(LogicalAddr(0 * chunk)).value(), 0u * chunk);
    EXPECT_EQ(mem.localAddr(LogicalAddr(2 * chunk)).value(), 1u * chunk);
    EXPECT_EQ(mem.localAddr(LogicalAddr(4 * chunk + 128)).value(), 2u * chunk + 128);
    // Channel 1 likewise.
    EXPECT_EQ(mem.localAddr(LogicalAddr(1 * chunk)).value(), 0u * chunk);
    EXPECT_EQ(mem.localAddr(LogicalAddr(3 * chunk + 64)).value(), 1u * chunk + 64);
}

TEST(MemorySystem, RoutesRequestsToTheRightChannel)
{
    EventQueue eq;
    MemorySystem mem(eq, config(2));
    const std::uint64_t chunk = 16 * 1024;
    mem.writeback(LogicalAddr(0 * chunk));
    mem.writeback(LogicalAddr(1 * chunk));
    mem.writeback(LogicalAddr(2 * chunk));
    eq.run(eq.curTick() + 10 * kMicrosecond);
    EXPECT_EQ(mem.channel(ChannelId(0)).stats().issuedNormalWrites.value(), 2u);
    EXPECT_EQ(mem.channel(ChannelId(1)).stats().issuedNormalWrites.value(), 1u);
}

TEST(MemorySystem, EagerQueuesArePerChannel)
{
    EventQueue eq;
    MemorySystemConfig cfg = config(2, beMellow().withSC());
    EventQueue eq2;
    MemorySystem mem(eq2, cfg);
    const std::uint64_t chunk = 16 * 1024;
    // Fill channel 0's eager queue (16 entries); channel 1 stays open.
    unsigned accepted0 = 0;
    for (std::uint64_t i = 0; i < 20; ++i) {
        accepted0 += mem.eagerWrite(LogicalAddr(2 * i * chunk)); // even chunks: ch 0
    }
    EXPECT_EQ(accepted0, 16u);
    EXPECT_TRUE(mem.eagerQueueHasSpace()); // channel 1 has room
    EXPECT_TRUE(mem.eagerWrite(LogicalAddr(1 * chunk)));
    (void)eq;
}

TEST(MemorySystem, AggregatesLifetimeAsMinimumOverChannels)
{
    EventQueue eq;
    MemorySystem mem(eq, config(2));
    // Wear only channel 0: its (finite) lifetime is the system's.
    mem.writeback(LogicalAddr(0));
    eq.run(eq.curTick() + 10 * kMicrosecond);
    mem.finalize();
    double sys_years = mem.lifetimeYears(10 * kMicrosecond);
    double ch0_years =
        mem.channel(ChannelId(0)).wearTracker().lifetimeYears(10 * kMicrosecond);
    EXPECT_DOUBLE_EQ(sys_years, ch0_years);
}

TEST(MemorySystem, RejectsBadConfig)
{
    EventQueue eq;
    MemorySystemConfig c = config(0);
    EXPECT_THROW(MemorySystem(eq, c), FatalError);
    c = config(3); // 4 MB does not divide by 3
    EXPECT_THROW(MemorySystem(eq, c), FatalError);
    EXPECT_THROW((void)MemorySystem(eq, config(2)).channel(ChannelId(2)),
                 PanicError);
}

TEST(MemorySystem, FullSystemRunsWithMultipleChannels)
{
    SystemConfig cfg;
    cfg.workloadName = "stream";
    cfg.policy = beMellow().withSC();
    cfg.instructions = 500'000;
    cfg.warmupInstructions = 200'000;
    cfg.numChannels = 2;
    SimReport r = runSystem(cfg);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.memReads, 0u);
    EXPECT_GT(r.lifetimeYears, 0.0);
}

TEST(MemorySystem, MoreChannelsNeverSlower)
{
    auto run_with = [](unsigned channels) {
        SystemConfig cfg;
        cfg.workloadName = "milc";
        cfg.policy = norm();
        cfg.instructions = 800'000;
        cfg.warmupInstructions = 200'000;
        cfg.numChannels = channels;
        return runSystem(cfg);
    };
    SimReport one = run_with(1);
    SimReport four = run_with(4);
    // Four channels quadruple bus bandwidth and bank count; a
    // bandwidth-hungry random workload must not lose performance.
    EXPECT_GE(four.ipc, one.ipc * 0.98);
}
