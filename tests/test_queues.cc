/** @file Tests for the bank-partitioned request queues. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "nvm/queues.hh"
#include "sim/alloc_counter.hh"
#include "sim/logging.hh"

using namespace mellowsim;

namespace
{

MemRequest
makeReq(unsigned bank, Addr addr, ReqType type = ReqType::Write,
        Tick arrival = 0)
{
    MemRequest r;
    r.type = type;
    r.addr = LogicalAddr(addr);
    r.loc.bank = BankId(bank);
    r.arrival = arrival;
    return r;
}

} // namespace

TEST(RequestQueue, StartsEmpty)
{
    RequestQueue q(4, 8);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.full());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.capacity(), 8u);
    EXPECT_EQ(q.countForBank(BankId(0)), 0u);
}

TEST(RequestQueue, PushPopFifoPerBank)
{
    RequestQueue q(4, 8);
    q.push(makeReq(1, 0x40, ReqType::Write, 10));
    q.push(makeReq(1, 0x80, ReqType::Write, 20));
    q.push(makeReq(2, 0xC0, ReqType::Write, 30));
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.countForBank(BankId(1)), 2u);
    EXPECT_EQ(q.countForBank(BankId(2)), 1u);

    EXPECT_EQ(q.front(BankId(1)).addr.value(), 0x40u);
    MemRequest r = q.pop(BankId(1));
    EXPECT_EQ(r.addr.value(), 0x40u);
    EXPECT_EQ(q.front(BankId(1)).addr.value(), 0x80u);
    EXPECT_EQ(q.size(), 2u);
}

TEST(RequestQueue, PushFrontJumpsTheLine)
{
    RequestQueue q(2, 8);
    q.push(makeReq(0, 0x40));
    q.pushFront(makeReq(0, 0x999C0));
    EXPECT_EQ(q.front(BankId(0)).addr.value(), 0x999C0u);
}

TEST(RequestQueue, FullIsAdvisory)
{
    RequestQueue q(1, 2);
    q.push(makeReq(0, 0x00));
    EXPECT_FALSE(q.full());
    q.push(makeReq(0, 0x40));
    EXPECT_TRUE(q.full());
    // Overflow allowed; the controller's drain logic handles it.
    q.push(makeReq(0, 0x80));
    EXPECT_EQ(q.size(), 3u);
    EXPECT_TRUE(q.full());
}

TEST(RequestQueue, BlockIndexCountsPendingWritesPerBlock)
{
    FlatCounter<std::uint64_t> index;
    RequestQueue q(2, 8, &index);
    const std::uint64_t block = blockNumber(LogicalAddr(0x40));
    EXPECT_EQ(index.count(block), 0u);
    q.push(makeReq(0, 0x40));
    q.push(makeReq(1, 0x40 + 16)); // same block, different offset
    EXPECT_EQ(index.count(block), 2u);
    q.pop(BankId(0));
    EXPECT_EQ(index.count(block), 1u);
    q.pop(BankId(1));
    EXPECT_EQ(index.count(block), 0u);
}

TEST(RequestQueue, QueuesSharingABlockIndexCountTogether)
{
    // The controller's write and eager queues count into one index;
    // its read queue keeps none.
    FlatCounter<std::uint64_t> index;
    RequestQueue writes(2, 8, &index);
    RequestQueue eager(2, 8, &index);
    RequestQueue reads(2, 8);
    const std::uint64_t block = blockNumber(LogicalAddr(0x80));
    writes.push(makeReq(0, 0x80));
    eager.pushFront(makeReq(1, 0x80, ReqType::EagerWrite));
    reads.push(makeReq(1, 0x80, ReqType::Read));
    EXPECT_EQ(index.count(block), 2u);
    reads.pop(BankId(1));
    writes.pop(BankId(0));
    EXPECT_EQ(index.count(block), 1u);
    eager.pop(BankId(1));
    EXPECT_TRUE(index.empty());
}

TEST(RequestQueue, OldestArrivalAcrossBanks)
{
    RequestQueue q(4, 8);
    EXPECT_EQ(q.oldestArrival(), MaxTick);
    q.push(makeReq(2, 0x80, ReqType::Write, 50));
    q.push(makeReq(0, 0x00, ReqType::Write, 30));
    q.push(makeReq(0, 0x40, ReqType::Write, 10)); // younger in FIFO
    EXPECT_EQ(q.oldestArrival(), 30u);
}

TEST(RequestQueue, PopEmptyBankPanics)
{
    RequestQueue q(2, 4);
    EXPECT_THROW(q.pop(BankId(0)), PanicError);
    EXPECT_THROW((void)q.front(BankId(1)), PanicError);
}

TEST(RequestQueue, BankRangeChecked)
{
    RequestQueue q(2, 4);
    EXPECT_THROW(q.push(makeReq(2, 0x0)), PanicError);
    EXPECT_THROW((void)q.countForBank(BankId(5)), PanicError);
}

TEST(RequestQueue, RejectsDegenerateConstruction)
{
    EXPECT_THROW(RequestQueue(0, 4), FatalError);
    EXPECT_THROW(RequestQueue(4, 0), FatalError);
}

TEST(RequestQueue, RandomizedAgainstNaiveReference)
{
    // Drive the queue with random push/pushFront/pop traffic and
    // check every aggregate view (size, per-bank counts, per-block
    // counts, oldestArrival) against a deque-of-deques reference
    // after every single operation.
    constexpr unsigned kBanks = 6;
    FlatCounter<std::uint64_t> index;
    RequestQueue q(kBanks, 16, &index);
    std::vector<std::deque<MemRequest>> ref(kBanks);
    std::uint64_t rng = 0x853c49e6748fea9bull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    auto check = [&] {
        std::size_t total = 0;
        Tick oldest = MaxTick;
        std::map<std::uint64_t, unsigned> blocks;
        for (unsigned b = 0; b < kBanks; ++b) {
            total += ref[b].size();
            ASSERT_EQ(q.countForBank(BankId(b)), ref[b].size());
            if (!ref[b].empty()) {
                ASSERT_EQ(q.front(BankId(b)).addr.value(),
                          ref[b].front().addr.value());
                oldest = std::min(oldest, ref[b].front().arrival);
            }
            for (const MemRequest &r : ref[b])
                ++blocks[r.addr.value() / kBlockSize];
        }
        ASSERT_EQ(q.size(), total);
        ASSERT_EQ(q.empty(), total == 0);
        ASSERT_EQ(q.oldestArrival(), oldest);
        ASSERT_EQ(index.size(), blocks.size());
        for (const auto &[block, count] : blocks)
            ASSERT_EQ(index.count(block), count);
    };
    for (int op = 0; op < 3000; ++op) {
        unsigned bank = next() % kBanks;
        unsigned action = next() % 4;
        if (action == 3 && !ref[bank].empty()) {
            MemRequest got = q.pop(BankId(bank));
            EXPECT_EQ(got.addr.value(), ref[bank].front().addr.value());
            EXPECT_EQ(got.arrival, ref[bank].front().arrival);
            ref[bank].pop_front();
        } else {
            // Few distinct blocks so the block index sees collisions.
            Addr addr = (next() % 24) * kBlockSize;
            Tick arrival = next() % 500;
            MemRequest r = makeReq(bank, addr, ReqType::Write, arrival);
            if (action == 2) {
                q.pushFront(r);
                ref[bank].push_front(r);
            } else {
                q.push(r);
                ref[bank].push_back(r);
            }
        }
        check();
        if (testing::Test::HasFatalFailure())
            FAIL() << "mismatch at op " << op;
    }
    // Drain completely, still checking each step.
    for (unsigned b = 0; b < kBanks; ++b) {
        while (!ref[b].empty()) {
            MemRequest got = q.pop(BankId(b));
            EXPECT_EQ(got.addr.value(), ref[b].front().addr.value());
            ref[b].pop_front();
            check();
        }
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.oldestArrival(), MaxTick);
}

TEST(RequestQueue, NonEmptyBanksMaskTracksOccupancy)
{
    RequestQueue q(4, 8);
    EXPECT_FALSE(q.nonEmptyBanks().any());
    q.push(makeReq(2, 0x40));
    q.push(makeReq(0, 0x80));
    EXPECT_TRUE(q.nonEmptyBanks().test(BankId(0)));
    EXPECT_FALSE(q.nonEmptyBanks().test(BankId(1)));
    EXPECT_TRUE(q.nonEmptyBanks().test(BankId(2)));
    q.pop(BankId(2));
    EXPECT_FALSE(q.nonEmptyBanks().test(BankId(2)));
    q.pop(BankId(0));
    EXPECT_FALSE(q.nonEmptyBanks().any());
}

TEST(RequestQueue, StressManyPushPops)
{
    RequestQueue q(8, 32);
    for (int round = 0; round < 100; ++round) {
        for (unsigned b = 0; b < 8; ++b) {
            q.push(makeReq(b, (round * 8 + b) * kBlockSize));
        }
    }
    EXPECT_EQ(q.size(), 800u);
    for (unsigned b = 0; b < 8; ++b) {
        Addr prev = 0;
        bool first = true;
        while (q.countForBank(BankId(b)) > 0) {
            MemRequest r = q.pop(BankId(b));
            if (!first) {
                EXPECT_GT(r.addr.value(), prev);
            }
            prev = r.addr.value();
            first = false;
        }
    }
    EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, SteadyStateChurnAllocatesNothing)
{
    // 8 banks of write traffic: push, look up the next block, pop once
    // a bank holds more than 3, and ask for the oldest arrival, as the
    // controller does per request. After a warm-up that grows the
    // arena and indexes, the same churn must not touch the heap; the
    // loop holds no gtest macro, so only the queue's calls count.
    constexpr unsigned kBanks = 8;
    FlatCounter<std::uint64_t> index;
    RequestQueue q(kBanks, 32, &index);
    std::uint64_t lookups = 0;

    auto churn = [&](std::uint64_t rounds) {
        Addr nextAddr = 0;
        for (std::uint64_t r = 0; r < rounds; ++r) {
            const unsigned bank = static_cast<unsigned>(r % kBanks);
            q.push(makeReq(bank, nextAddr, ReqType::Write,
                           static_cast<Tick>(r)));
            nextAddr = (nextAddr + kBlockSize) % (1u << 22);
            lookups += index.count(blockNumber(LogicalAddr(nextAddr)));
            if (q.countForBank(BankId(bank)) > 3)
                lookups += q.pop(BankId(bank)).attempts;
            if (q.oldestArrival() == MaxTick)
                ++lookups;
        }
        for (unsigned b = 0; b < kBanks; ++b) {
            while (q.countForBank(BankId(b)) > 0)
                q.pop(BankId(b));
        }
    };

    churn(20'000);
    const std::uint64_t allocs = alloccounter::allocations();
    churn(200'000);
    const std::uint64_t steadyAllocs = alloccounter::allocations() - allocs;

    EXPECT_TRUE(q.empty());
    EXPECT_EQ(steadyAllocs, 0u);
}
