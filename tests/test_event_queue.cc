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

TEST(EventQueue, StressAgainstMultimapReference)
{
    // Randomized schedule/drain rounds checked against a
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
        unsigned batch = 50 + next() % 200;
        for (unsigned i = 0; i < batch; ++i) {
            Tick when = eq.curTick() + 1 + next() % 50;
            int id = token++;
            eq.schedule(when, [&firedOrder, id] {
                firedOrder.push_back(id);
            });
            ref.emplace(when, id);
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
 * scheduled anew by every re-arm, with the attempt number the memory
 * controller gives its write completions, so only the newest one
 * acts. Every firing may re-arm it (earlier, later or at the current
 * tick) or schedule an ordinary event, drawing from a private
 * generator; a second replay with the same seed makes the same draws
 * for as long as both fire the same sequence.
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
            case 0: { // drain one event at a time
                // Count recorded firings, not step() calls: a stale
                // re-arm of the reference fires as a no-op step. Stop
                // while a recorded firing is still pending, so such a
                // no-op never moves time past the last one.
                _stop = MaxTick;
                const std::size_t want = _fires.size() + next() % 4;
                while (_fires.size() < want && pendingFires() > 0)
                    _eq.step();
                break;
            }
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

    /** Firings still to be recorded. */
    [[nodiscard]] std::size_t
    pendingFires() const
    {
        return _ordinaryPending + (_pinArmed ? 1 : 0);
    }

    void
    rearm(Tick when)
    {
        _pinArmed = true;
        if (_pin) {
            _pin->schedule(when);
        } else {
            _eq.schedule(when, [this, attempt = ++_pinAttempt] {
                if (attempt == _pinAttempt)
                    onFire(-1);
            });
        }
    }

    void
    onFire(int id)
    {
        if (id < 0)
            _pinArmed = false;
        else
            --_ordinaryPending;
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
            // One draw in five does nothing, so the population of
            // pending events stays bounded.
            const std::uint64_t pick = next() % 5;
            if (pick < 2) { // re-arm, often at the current tick
                rearm(now + (next() % 3 == 0 ? 0 : next() % 9));
            } else if (pick < 4) {
                const int id = _nextId++;
                ++_ordinaryPending;
                _eq.schedule(now + next() % 6, [this, id] { onFire(id); });
            }
            if (firing && next() % 2 == 0)
                break; // keep chains from growing without bound
        }
    }

    EventQueue _eq;
    std::optional<EventQueue::PinnedEvent> _pin;
    /** Attempt number of the reference's newest re-arm. */
    std::uint64_t _pinAttempt = 0;
    bool _pinArmed = false;
    std::size_t _ordinaryPending = 0;
    std::uint64_t _rng;
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
            // reference's stale re-arms, still in the heap until they
            // fire as no-ops, can only make its horizon earlier.
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

