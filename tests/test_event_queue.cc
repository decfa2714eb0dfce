/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "sim/alloc_counter.hh"
#include "sim/event_queue.hh"

using namespace mellowsim;

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.numPending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(5, [] {}), PanicError);
}

TEST(EventQueue, ScheduleAtCurrentTickAllowed)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(10, [&] { eq.schedule(10, [&] { ran = true; }); });
    eq.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, DescheduleCancelsEvent)
{
    EventQueue eq;
    bool ran = false;
    EventId id = eq.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(eq.scheduled(id));
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(eq.scheduled(id));
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, DescheduleTwiceReturnsFalse)
{
    EventQueue eq;
    EventId id = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(eq.deschedule(id));
}

TEST(EventQueue, DescheduleAfterFireReturnsFalse)
{
    EventQueue eq;
    EventId id = eq.schedule(10, [] {});
    eq.run();
    EXPECT_FALSE(eq.deschedule(id));
}

TEST(EventQueue, RunStopsBeforeStopAt)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    std::uint64_t executed = eq.run(20);
    EXPECT_EQ(executed, 1u);
    EXPECT_EQ(fired, 1);
    // Events exactly at stopAt are not executed.
    EXPECT_EQ(eq.curTick(), 20u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunOnEmptyQueueAdvancesToStopAt)
{
    EventQueue eq;
    eq.run(100);
    EXPECT_EQ(eq.curTick(), 100u);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100)
            eq.scheduleIn(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.curTick(), 99u);
}

TEST(EventQueue, NumPendingTracksCancellations)
{
    EventQueue eq;
    EventId a = eq.schedule(5, [] {});
    eq.schedule(6, [] {});
    EXPECT_EQ(eq.numPending(), 2u);
    eq.deschedule(a);
    EXPECT_EQ(eq.numPending(), 1u);
    eq.run();
    EXPECT_EQ(eq.numPending(), 0u);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    Tick last = 0;
    bool monotone = true;
    for (int i = 0; i < 10000; ++i) {
        Tick when = static_cast<Tick>((i * 7919) % 1000);
        eq.schedule(when, [&, when] {
            monotone = monotone && when >= last;
            last = when;
        });
    }
    eq.run();
    EXPECT_TRUE(monotone);
}

TEST(EventQueue, ScheduleInUsesCurrentTick)
{
    EventQueue eq;
    Tick observed = 0;
    eq.schedule(40, [&] {
        eq.scheduleIn(5, [&] { observed = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(observed, 45u);
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsInert)
{
    EventQueue eq;
    // Cancel an event, then schedule another: the pool hands the
    // freed slot back, but the stale handle must neither report
    // scheduled nor cancel the new occupant.
    bool ranNew = false;
    EventHandle stale = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.deschedule(stale));
    EventHandle fresh = eq.schedule(20, [&] { ranNew = true; });
    EXPECT_FALSE(eq.scheduled(stale));
    EXPECT_TRUE(eq.scheduled(fresh));
    EXPECT_FALSE(eq.deschedule(stale));
    EXPECT_TRUE(eq.scheduled(fresh));
    eq.run();
    EXPECT_TRUE(ranNew);
}

TEST(EventQueue, HandleFromFiredSlotIsInert)
{
    EventQueue eq;
    EventHandle fired = eq.schedule(10, [] {});
    eq.run();
    bool ranNew = false;
    EventHandle fresh = eq.schedule(20, [&] { ranNew = true; });
    EXPECT_FALSE(eq.scheduled(fired));
    EXPECT_FALSE(eq.deschedule(fired));
    EXPECT_TRUE(eq.scheduled(fresh));
    eq.run();
    EXPECT_TRUE(ranNew);
}

TEST(EventQueue, DefaultHandleIsInvalid)
{
    EventQueue eq;
    EventHandle h;
    EXPECT_FALSE(h.valid());
    EXPECT_EQ(h, InvalidEventHandle);
    EXPECT_FALSE(eq.scheduled(h));
    EXPECT_FALSE(eq.deschedule(h));
    EventHandle bound = eq.schedule(1, [] {});
    EXPECT_TRUE(bound.valid());
    EXPECT_NE(bound, InvalidEventHandle);
}

TEST(EventQueue, SlotReuseUnderChurnKeepsHandlesDistinct)
{
    EventQueue eq;
    // Burn through the same few slots thousands of times; every old
    // handle must stay dead and every live one must fire exactly
    // once.
    int fired = 0;
    std::vector<EventHandle> dead;
    for (int round = 0; round < 2000; ++round) {
        EventHandle cancelled = eq.schedule(10 + round, [] {});
        eq.schedule(10 + round, [&] { ++fired; });
        EXPECT_TRUE(eq.deschedule(cancelled));
        dead.push_back(cancelled);
    }
    for (const EventHandle &h : dead)
        EXPECT_FALSE(eq.scheduled(h));
    eq.run();
    EXPECT_EQ(fired, 2000);
    for (const EventHandle &h : dead)
        EXPECT_FALSE(eq.deschedule(h));
}

TEST(EventQueue, CompactionPreservesSurvivorOrder)
{
    EventQueue eq;
    // Cancel far more than half the backlog to force heap
    // compaction, then check the survivors still fire in (when,
    // schedule-order) sequence.
    std::vector<int> order;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 4096; ++i) {
        Tick when = static_cast<Tick>(1 + (i * 2654435761u) % 977);
        handles.push_back(eq.schedule(when, [&order, i] {
            order.push_back(i);
        }));
    }
    std::vector<std::pair<Tick, int>> expect;
    for (int i = 0; i < 4096; ++i) {
        if (i % 8 != 0) {
            EXPECT_TRUE(eq.deschedule(handles[i]));
        } else {
            expect.emplace_back(
                static_cast<Tick>(1 + (i * 2654435761u) % 977), i);
        }
    }
    std::stable_sort(expect.begin(), expect.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    eq.run();
    ASSERT_EQ(order.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(order[i], expect[i].second);
}

TEST(EventQueue, StressAgainstMultimapReference)
{
    // Randomized schedule/cancel rounds checked against a
    // std::multimap reference model: multimap keeps equal keys in
    // insertion order, exactly the kernel's same-tick FIFO contract.
    EventQueue eq;
    std::multimap<Tick, int> ref;
    std::vector<int> firedOrder;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    int token = 0;
    for (int round = 0; round < 40; ++round) {
        std::vector<std::pair<EventHandle, std::multimap<Tick, int>::iterator>>
            live;
        unsigned batch = 50 + next() % 200;
        for (unsigned i = 0; i < batch; ++i) {
            Tick when = eq.curTick() + 1 + next() % 50;
            int id = token++;
            EventHandle h = eq.schedule(when, [&firedOrder, id] {
                firedOrder.push_back(id);
            });
            live.emplace_back(h, ref.emplace(when, id));
        }
        // Cancel a random ~third of this round's batch.
        for (auto &[handle, it] : live) {
            if (next() % 3 == 0) {
                EXPECT_TRUE(eq.deschedule(handle));
                ref.erase(it);
            }
        }
        // Drain up to (not including) a random stop tick.
        Tick stop = eq.curTick() + 1 + next() % 40;
        eq.run(stop);
        std::vector<int> expect;
        while (!ref.empty() && ref.begin()->first < stop) {
            expect.push_back(ref.begin()->second);
            ref.erase(ref.begin());
        }
        ASSERT_EQ(firedOrder, expect) << "round " << round;
        firedOrder.clear();
    }
    eq.run();
    std::vector<int> expect;
    for (const auto &[when, id] : ref)
        expect.push_back(id);
    EXPECT_EQ(firedOrder, expect);
    EXPECT_EQ(eq.numPending(), 0u);
}

// --- Batched handlers: horizon() and advanceTo() -----------------------

TEST(EventQueue, HorizonIsTheEarliestPendingTick)
{
    EventQueue eq;
    EXPECT_EQ(eq.horizon(), MaxTick);
    eq.schedule(40, [] {});
    eq.schedule(25, [] {});
    EXPECT_EQ(eq.horizon(), 25u);
}

TEST(EventQueue, HorizonIsBoundedByTheActiveRunStop)
{
    EventQueue eq;
    std::vector<Tick> seen;
    eq.schedule(10, [&] { seen.push_back(eq.horizon()); });
    eq.schedule(100, [&] { seen.push_back(eq.horizon()); });
    eq.run(50);
    EXPECT_EQ(eq.horizon(), 100u); // no run() active: stop bound gone
    ASSERT_TRUE(eq.step());
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], 50u);      // run(50): next event is at 100
    EXPECT_EQ(seen[1], MaxTick);  // step(): nothing else pending
}

TEST(EventQueue, AdvanceToMovesTimeInsideAnEvent)
{
    EventQueue eq;
    std::vector<Tick> fired;
    eq.schedule(10, [&] {
        eq.advanceTo(10); // the current tick itself is allowed
        eq.advanceTo(29);
        fired.push_back(eq.curTick());
        eq.schedule(eq.curTick(), [&] { fired.push_back(eq.curTick()); });
    });
    eq.schedule(30, [&] { fired.push_back(eq.curTick()); });
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{29, 29, 30}));
}

TEST(EventQueue, AdvanceToOutsideTheHorizonPanics)
{
    EventQueue eq;
    bool checked = false;
    eq.schedule(10, [&] {
        EXPECT_THROW(eq.advanceTo(9), PanicError);  // the past
        EXPECT_THROW(eq.advanceTo(30), PanicError); // at the next event
        EXPECT_THROW(eq.advanceTo(20), PanicError); // at the run stop
        checked = true;
    });
    eq.schedule(30, [] {});
    eq.run(20);
    EXPECT_TRUE(checked);
    EXPECT_EQ(eq.curTick(), 20u);
}

// --- Pinned events ------------------------------------------------------

namespace
{

/**
 * Replays one random script on its own queue. Event -1 is the
 * self-re-arming event: a PinnedEvent, or (the reference) a heap event
 * that every re-arm deschedules and schedules anew. Every firing may
 * re-arm it (earlier, later or at the current tick), schedule an
 * ordinary event or cancel one, drawing from a private generator; a
 * second replay with the same seed makes the same draws for as long
 * as both fire the same sequence.
 */
class ScriptReplay
{
  public:
    struct Fire
    {
        Tick when;
        int id;
        Tick horizon; // after the firing's own actions
        Tick stop;
        int round;
        friend bool operator==(const Fire &, const Fire &) = default;
    };

    ScriptReplay(bool pinned, std::uint64_t seed) : _rng(seed)
    {
        if (pinned)
            _pin.emplace(_eq, [this] { onFire(-1); });
    }

    /** Run the script for @p rounds outer rounds; return the fires. */
    std::vector<Fire>
    play(int rounds)
    {
        for (_round = 0; _round < rounds; ++_round) {
            act(/*firing=*/false);
            switch (next() % 4) {
            case 0: // drain one event at a time
                _stop = MaxTick;
                for (std::uint64_t n = next() % 4; n > 0 && _eq.step();)
                    --n;
                break;
            default: // drain to a stop boundary, possibly this tick
                _stop = _eq.curTick() + next() % 12;
                _eq.run(_stop);
                _stop = MaxTick;
                break;
            }
        }
        _eq.run();
        EXPECT_EQ(_eq.numPending(), 0u);
        return _fires;
    }

  private:
    std::uint64_t
    next()
    {
        _rng ^= _rng << 13;
        _rng ^= _rng >> 7;
        _rng ^= _rng << 17;
        return _rng;
    }

    void
    rearm(Tick when)
    {
        if (_pin) {
            _pin->schedule(when);
        } else {
            _eq.deschedule(_pinHandle);
            _pinHandle = _eq.schedule(when, [this] { onFire(-1); });
        }
    }

    void
    onFire(int id)
    {
        const Tick now = _eq.curTick();
        act(/*firing=*/true);
        _fires.push_back({now, id, _eq.horizon(), _stop, _round});
    }

    void
    act(bool firing)
    {
        const unsigned n = 1 + next() % 3;
        for (unsigned i = 0; i < n; ++i) {
            const Tick now = _eq.curTick();
            switch (next() % 5) {
            case 0:
            case 1: // re-arm, often at the current tick
                rearm(now + (next() % 3 == 0 ? 0 : next() % 9));
                break;
            case 2:
            case 3: {
                const int id = _nextId++;
                _live.push_back(_eq.schedule(now + next() % 6, [this, id] {
                    onFire(id);
                }));
                break;
            }
            default:
                if (!_live.empty())
                    _eq.deschedule(_live[next() % _live.size()]);
                break;
            }
            if (firing && next() % 2 == 0)
                break; // keep chains from growing without bound
        }
    }

    EventQueue _eq;
    std::optional<EventQueue::PinnedEvent> _pin;
    EventHandle _pinHandle;
    std::uint64_t _rng;
    std::vector<EventHandle> _live;
    std::vector<Fire> _fires;
    Tick _stop = MaxTick;
    int _round = 0;
    int _nextId = 0;
};

} // namespace

TEST(EventQueue, PinnedEventFiresWhereAHeapEventWould)
{
    std::size_t later = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const auto pinned =
            ScriptReplay(true, seed * 0x9e3779b97f4a7c15ull).play(60);
        const auto heap =
            ScriptReplay(false, seed * 0x9e3779b97f4a7c15ull).play(60);
        for (std::size_t i = 0; i < std::min(pinned.size(), heap.size());
             ++i) {
            ASSERT_EQ(pinned[i].when, heap[i].when)
                << "seed " << seed << " fire " << i;
            ASSERT_EQ(pinned[i].id, heap[i].id)
                << "seed " << seed << " fire " << i;
            // The horizon never passes the stop tick, nor the next
            // firing unless the script scheduled in between. The
            // reference's stale re-arm entries can only make its
            // horizon earlier.
            const ScriptReplay::Fire &f = pinned[i];
            ASSERT_LE(f.horizon, f.stop);
            if (i + 1 < pinned.size() && pinned[i + 1].round == f.round) {
                ASSERT_LE(f.horizon, pinned[i + 1].when);
            }
            ASSERT_GE(f.horizon, heap[i].horizon);
            later += f.horizon > heap[i].horizon;
        }
        ASSERT_EQ(pinned.size(), heap.size()) << "seed " << seed;
    }
    EXPECT_GT(later, 0u); // some script left a stale reference entry
}

TEST(EventQueue, PinnedRearmAddsNoHeapEntry)
{
    EventQueue eq;
    std::vector<Tick> fired;
    EventQueue::PinnedEvent pin(eq, [&] { fired.push_back(eq.curTick()); });
    EXPECT_FALSE(pin.scheduled());
    EXPECT_EQ(pin.when(), MaxTick);

    pin.schedule(10);
    pin.schedule(5);  // earlier
    pin.schedule(20); // later
    pin.schedule(7);
    EXPECT_TRUE(pin.scheduled());
    EXPECT_EQ(pin.when(), 7u);
    EXPECT_EQ(eq.rawHeapSize(), 0u);
    EXPECT_EQ(eq.slotCount(), 0u);
    EXPECT_EQ(eq.numPending(), 1u);
    EXPECT_EQ(eq.armedPinned(), 1u);
    EXPECT_EQ(eq.minPendingTick(), 7u);
    EXPECT_EQ(eq.horizon(), 7u);

    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(fired, (std::vector<Tick>{7}));
    EXPECT_FALSE(pin.scheduled());
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.rawHeapSize(), 0u);
}

TEST(EventQueue, DestroyingAPinnedEventDisarmsIt)
{
    EventQueue eq;
    std::vector<int> order;
    EventQueue::PinnedEvent first(eq, [&] { order.push_back(1); });
    std::optional<EventQueue::PinnedEvent> dropped;
    dropped.emplace(eq, [&] { order.push_back(0); });
    EventQueue::PinnedEvent last(eq, [&] { order.push_back(2); });
    first.schedule(10);
    dropped->schedule(5);
    last.schedule(15);
    EXPECT_EQ(eq.numPending(), 3u);

    dropped.reset(); // armed and earliest
    EXPECT_EQ(eq.numPending(), 2u);
    EXPECT_EQ(eq.minPendingTick(), 10u);
    last.schedule(8);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
    EXPECT_TRUE(eq.empty());
}

// The steady-state tests run a warm-up that grows the kernel's slabs
// and heap to their working size, then require the same loop to make
// no heap allocation at all. The counter is per thread and the loops
// hold no gtest macro, so only the kernel's own calls are counted.

TEST(EventQueue, SteadyStateScheduleFireAllocatesNothing)
{
    // 64 self-rescheduling chains: each fire schedules its successor,
    // so the pending population stays constant.
    constexpr unsigned kChains = 64;
    EventQueue eq;
    std::uint64_t fired = 0;

    struct Chain
    {
        EventQueue *eq;
        std::uint64_t *fired;
        std::uint64_t limit;
        Tick stride;

        void
        operator()() const
        {
            if (++*fired < limit)
                eq->scheduleIn(stride, *this);
        }
    };

    auto runChains = [&](std::uint64_t limit) {
        fired = 0;
        for (unsigned c = 0; c < kChains; ++c)
            eq.scheduleIn(1 + c % 7, Chain{&eq, &fired, limit, 1 + c % 13});
        eq.run();
    };

    runChains(20'000);
    const std::uint64_t allocs = alloccounter::allocations();
    runChains(200'000);
    const std::uint64_t steadyAllocs = alloccounter::allocations() - allocs;

    EXPECT_GE(fired, 200'000u);
    EXPECT_EQ(steadyAllocs, 0u);
}

TEST(EventQueue, SteadyStateCancelChurnAllocatesNothing)
{
    // 128 slots, each rescheduled (descheduling the pending event
    // first) round-robin, with the queue drained a little every round.
    constexpr unsigned kSlots = 128;
    EventQueue eq;
    std::vector<EventId> handles(kSlots);
    std::uint64_t fired = 0;

    auto churn = [&](std::uint64_t rounds) {
        for (std::uint64_t r = 0; r < rounds; ++r) {
            const unsigned slot = static_cast<unsigned>(r % kSlots);
            if (eq.scheduled(handles[slot]))
                eq.deschedule(handles[slot]);
            handles[slot] = eq.scheduleIn(1 + r % 97, [&fired] { ++fired; });
            if (slot == kSlots - 1)
                eq.run(eq.curTick() + 5);
        }
        eq.run();
    };

    churn(20'000);
    const std::uint64_t allocs = alloccounter::allocations();
    churn(200'000);
    const std::uint64_t steadyAllocs = alloccounter::allocations() - allocs;

    EXPECT_GT(fired, 0u);
    EXPECT_EQ(steadyAllocs, 0u);
}
