/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives the whole simulated system. Events are
 * arbitrary callables scheduled at absolute ticks; events scheduled
 * for the same tick fire in FIFO order of scheduling, which keeps
 * every run bit-deterministic.
 *
 * A heap event is fire-and-forget: once scheduled it fires exactly
 * once and cannot be cancelled. A component that may abandon work it
 * scheduled (the memory controller's cancelled or paused write
 * completion) tags the event with an attempt number and lets a stale
 * firing do nothing. A component's self-re-arming loop (the memory
 * controller's scheduler pass, the LLC's eager scan) instead owns a
 * PinnedEvent: one fixed action with at most one pending firing, kept
 * outside the heap and re-armed in place.
 *
 * Performance architecture (see DESIGN.md "Performance architecture"):
 * the kernel allocates nothing in steady state. Callables live in a
 * slab-allocated pool of fixed-size slots whose inline storage
 * (kInlineCallableBytes) every callable must fit, and slots recycle
 * through a free list.
 *
 * Determinism argument: the heap is ordered by the strict total order
 * (when, seq) where seq is a monotonic schedule counter, so the fire
 * sequence is a pure function of the schedule-call sequence. Slot
 * reuse and free-list order change only *where* callables are stored,
 * never the (when, seq) keys, so they cannot reorder fires. A pinned
 * event draws its seq from the same counter on every (re-)arm, and
 * step()/run() fire whichever of it and the heap top is earlier in
 * (when, seq) order, so it fires exactly where a heap event scheduled
 * by the same (re-)arm would have. tools/determinism_check audits
 * this end to end.
 */

#ifndef MELLOWSIM_SIM_EVENT_QUEUE_HH
#define MELLOWSIM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace mellowsim
{

/**
 * The central event queue.
 *
 * Invariants:
 *  - time never moves backwards: events may only be scheduled at
 *    curTick() or later;
 *  - same-tick events execute in the order they were scheduled.
 */
class EventQueue
{
  public:
    /**
     * Callable capacity of one pool slot. Every event callable must
     * fit (schedule() static_asserts it): hot-path lambdas capture
     * `this` plus a few words.
     */
    static constexpr std::size_t kInlineCallableBytes = 48;

    /** True iff F fits a pool slot. */
    template <typename F>
    [[nodiscard]] static constexpr bool
    fitsInline()
    {
        return sizeof(F) <= kInlineCallableBytes &&
               alignof(F) <= alignof(std::max_align_t);
    }

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** Current simulation time. */
    [[nodiscard]] Tick curTick() const { return _curTick; }

    class PinnedEvent;

    /**
     * Schedule @p action to run once at absolute tick @p when.
     *
     * @param when  Absolute tick; must be >= curTick().
     * @param action  Callback to execute.
     */
    template <typename F>
    void
    schedule(Tick when, F &&action)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_v<Fn &>,
                      "event action must be callable with no args");
        static_assert(fitsInline<Fn>(),
                      "event action must fit a pool slot "
                      "(kInlineCallableBytes, max_align_t)");
        panic_if(when < _curTick,
                 "scheduling into the past: when=%llu cur=%llu",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(_curTick));

        panic_if(_nextSeq >= kMaxSeq,
                 "event sequence counter exhausted");
        std::uint32_t index = acquireSlot();
        Slot &s = slotRef(index);
        ::new (static_cast<void *>(s.storage)) Fn(std::forward<F>(action));
        s.invoke = [](void *obj) { (*static_cast<Fn *>(obj))(); };
        if constexpr (std::is_trivially_destructible_v<Fn>) {
            s.destroy = nullptr;
        } else {
            s.destroy = [](void *obj) { static_cast<Fn *>(obj)->~Fn(); };
        }

        _heap.push_back(Entry{when, (_nextSeq++ << kSlotBits) | index});
        heapSiftUp(_heap.size() - 1);
    }

    /** Schedule @p action @p delta ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&action)
    {
        schedule(_curTick + delta, std::forward<F>(action));
    }

    /** Number of pending events: heap events plus armed pinned ones. */
    [[nodiscard]] std::size_t
    numPending() const
    {
        return _heap.size() + _armedPinned;
    }

    // --- Audit accessors (src/check/) -----------------------------
    /**
     * Earliest tick of the heap top and the armed pinned events
     * (MaxTick if neither). Every event was scheduled at >= the
     * then-current tick, so none may sit in the past.
     */
    [[nodiscard]] Tick
    minPendingTick() const
    {
        Tick heap = _heap.empty() ? MaxTick : _heap.front().when;
        return _pinnedTopAt.when < heap ? _pinnedTopAt.when : heap;
    }

    /** Heap entries: one per pending heap event. */
    [[nodiscard]] std::size_t rawHeapSize() const { return _heap.size(); }

    /** Armed pinned events; each is pending but owns no heap entry. */
    [[nodiscard]] std::size_t armedPinned() const { return _armedPinned; }

    /** Pool slots ever created (capacity watermark, for tests). */
    [[nodiscard]] std::size_t slotCount() const { return _slotCount; }

    /** True iff no events remain. */
    [[nodiscard]] bool empty() const { return numPending() == 0; }

    /**
     * Run events until the queue empties or @p stopAt is reached.
     *
     * Events scheduled exactly at @p stopAt are NOT executed; time is
     * left at min(next event tick, stopAt).
     *
     * @return Number of events executed.
     */
    std::uint64_t run(Tick stopAt = MaxTick);

    /**
     * Execute at most one event.
     *
     * @retval true an event was executed.
     * @retval false the queue is empty.
     */
    bool step();

    // --- Batched handlers -------------------------------------------
    /**
     * First tick at which something other than the running event may
     * happen: the earliest of the heap top, the armed pinned events
     * and the stop tick of an active run(stopAt). No event fires
     * before it, so a handler may treat model state as constant over
     * the ticks below it and cover many of its own periodic firings
     * at once (the LLC's eager scan does; DESIGN.md "Eager scan"). A
     * heap event whose firing will do nothing (a stale write
     * completion) bounds it all the same, which only makes the
     * horizon earlier than it need be.
     *
     * Contract: step() has no stop tick, so the horizon of an event
     * fired by step() reaches the next pending event. A caller that
     * changes model state between events must advance time with
     * run(until) instead, whose stop tick bounds every batch.
     */
    [[nodiscard]] Tick
    horizon() const
    {
        Tick next = minPendingTick();
        return next < _stopAt ? next : _stopAt;
    }

    /**
     * Move the current tick forward to @p t inside the running event,
     * for a batched handler that acts at a later tick of its batch.
     * Panics unless curTick() <= @p t < horizon().
     */
    void
    advanceTo(Tick t)
    {
        panic_if(t < _curTick || t >= horizon(),
                 "advanceTo(%llu) outside [cur=%llu, horizon=%llu)",
                 static_cast<unsigned long long>(t),
                 static_cast<unsigned long long>(_curTick),
                 static_cast<unsigned long long>(horizon()));
        _curTick = t;
    }

  private:
    /**
     * One pool slot. Slots live in fixed-size chunks that are never
     * relocated, so a callable's address stays stable while it runs —
     * events may freely schedule further events (growing the pool)
     * from inside their own invocation.
     */
    struct Slot
    {
        alignas(std::max_align_t)
            unsigned char storage[kInlineCallableBytes];
        /** Valid while the slot holds a pending callable. */
        void (*invoke)(void *) = nullptr;
        /** Null for trivially-destructible callables. */
        void (*destroy)(void *) = nullptr;
        /** Free-list link (valid only while the slot is free). */
        std::uint32_t nextFree = kNoSlot;
    };

    /**
     * Heap key: strict total order by (when, key). The key's high
     * bits are the monotonic schedule sequence, so comparing keys is
     * comparing schedule order — same-tick FIFO — and four 16-byte
     * entries share one cache line.
     */
    struct Entry
    {
        Tick when;
        std::uint64_t key;
    };

    /**
     * Total heap order as one 128-bit integer: (when, key)
     * lexicographic. A single wide compare turns the sift loops'
     * child-selection into conditional moves — the data-dependent
     * branches of a classic comparator mispredict on nearly every
     * level and dominated the kernel's cost.
     */
    [[nodiscard]] static unsigned __int128
    key128(const Entry &e)
    {
        return (static_cast<unsigned __int128>(e.when) << 64) | e.key;
    }

    /**
     * (when, key) of a disarmed pinned event: after every armed one,
     * since no packed key reaches all ones.
     */
    static constexpr Entry kDisarmed{MaxTick, ~std::uint64_t{0}};

    void
    heapSiftUp(std::size_t i)
    {
        Entry e = _heap[i];
        unsigned __int128 ek = key128(e);
        while (i > 0) {
            std::size_t parent = (i - 1) >> 1;
            if (key128(_heap[parent]) <= ek)
                break;
            _heap[i] = _heap[parent];
            i = parent;
        }
        _heap[i] = e;
    }

    void
    heapSiftDown(std::size_t i)
    {
        Entry e = _heap[i];
        unsigned __int128 ek = key128(e);
        const std::size_t n = _heap.size();
        for (;;) {
            std::size_t left = 2 * i + 1;
            if (left >= n)
                break;
            std::size_t right = left + 1;
            std::size_t best = left;
            unsigned __int128 bk = key128(_heap[left]);
            if (right < n) {
                unsigned __int128 rk = key128(_heap[right]);
                best = rk < bk ? right : left;
                bk = rk < bk ? rk : bk;
            }
            if (ek <= bk)
                break;
            _heap[i] = _heap[best];
            i = best;
        }
        _heap[i] = e;
    }

    /** Slot-index field width of a packed event key. */
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint64_t kSlotMask =
        (std::uint64_t{1} << kSlotBits) - 1;
    /** Sequence numbers above this would overflow the key packing. */
    static constexpr std::uint64_t kMaxSeq =
        std::uint64_t{1} << (64 - kSlotBits);
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    static constexpr std::uint32_t kChunkShift = 8;
    static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

    [[nodiscard]] Slot &
    slotRef(std::uint32_t index)
    {
        return _chunks[index >> kChunkShift][index &
                                             (kChunkSlots - 1)];
    }

    /** Slot index packed into an event key. */
    [[nodiscard]] static constexpr std::uint32_t
    slotOf(std::uint64_t key)
    {
        return static_cast<std::uint32_t>(key & kSlotMask);
    }

    /** True iff the earliest armed pinned event fires before the heap top. */
    [[nodiscard]] bool
    pinnedFirst() const
    {
        return _heap.empty() ? _pinnedTop != nullptr
                             : key128(_pinnedTopAt) < key128(_heap.front());
    }

    /** Recompute the earliest armed pinned event. */
    void refreshPinnedTop();

    /** Fire the earliest armed pinned event at its tick. */
    void firePinned();

    void unregisterPinned(PinnedEvent &event);

    std::uint32_t acquireSlot();

    /** Pop the heap top and fire its event at its tick. */
    void fireTop();

    Tick _curTick = 0;
    /** Stop tick of the active run(); MaxTick outside run(). */
    Tick _stopAt = MaxTick;
    std::uint64_t _nextSeq = 1;

    std::vector<Entry> _heap;

    // --- Pinned events -----------------------------------------------
    std::vector<PinnedEvent *> _pinned;
    /** The earliest armed pinned event and its (when, key). */
    PinnedEvent *_pinnedTop = nullptr;
    Entry _pinnedTopAt = kDisarmed;
    std::size_t _armedPinned = 0;

    // --- Slot pool -------------------------------------------------
    std::vector<std::unique_ptr<Slot[]>> _chunks;
    std::uint32_t _slotCount = 0;
    std::uint32_t _freeHead = kNoSlot;
};

/**
 * An event owned by its component, with one fixed action and at most
 * one pending firing, kept outside the heap. schedule() arms it, or
 * re-arms a pending one in place, with a fresh key from the queue's
 * schedule counter, so it fires exactly where a heap event scheduled
 * by the same re-arm would have, at the cost of no slot, no callable
 * and no heap entry. It is disarmed while its action runs, so the
 * action may re-arm it.
 *
 * It registers with its queue on construction and unregisters on
 * destruction; the queue must outlive it, as it outlives every
 * component holding an EventQueue&.
 */
class EventQueue::PinnedEvent
{
  public:
    /** @p action: a small trivially destructible callable, e.g. [this]. */
    template <typename F>
    PinnedEvent(EventQueue &eventq, F action) : _eventq(eventq)
    {
        static_assert(std::is_invocable_v<F &>,
                      "pinned action must be callable with no args");
        static_assert(sizeof(F) <= sizeof(_action) &&
                          alignof(F) <= alignof(void *) &&
                          std::is_trivially_destructible_v<F>,
                      "pinned action must be a small trivially "
                      "destructible callable");
        ::new (static_cast<void *>(_action)) F(std::move(action));
        _invoke = [](void *obj) { (*static_cast<F *>(obj))(); };
        eventq._pinned.push_back(this);
    }

    ~PinnedEvent() { _eventq.unregisterPinned(*this); }

    PinnedEvent(const PinnedEvent &) = delete;
    PinnedEvent &operator=(const PinnedEvent &) = delete;

    /**
     * Fire at absolute tick @p when (>= curTick()), replacing any
     * pending firing. Consumes one sequence number.
     */
    void
    schedule(Tick when)
    {
        EventQueue &q = _eventq;
        panic_if(when < q._curTick,
                 "scheduling into the past: when=%llu cur=%llu",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(q._curTick));
        panic_if(q._nextSeq >= kMaxSeq,
                 "event sequence counter exhausted");
        const Tick was = _at.when;
        if (!scheduled())
            ++q._armedPinned;
        _at = Entry{when, q._nextSeq++ << kSlotBits};
        if (q._pinnedTop == this) {
            // Moved earlier, it still precedes every other; moved
            // later, another may now be first.
            if (when < was)
                q._pinnedTopAt = _at;
            else
                q.refreshPinnedTop();
        } else if (key128(_at) < key128(q._pinnedTopAt)) {
            q._pinnedTop = this;
            q._pinnedTopAt = _at;
        }
    }

    /** True iff a firing is pending. */
    [[nodiscard]] bool scheduled() const { return _at.key != kDisarmed.key; }

    /** Tick of the pending firing; MaxTick when none. */
    [[nodiscard]] Tick when() const { return _at.when; }

  private:
    friend class EventQueue;

    EventQueue &_eventq;
    /** (when, key) of the pending firing; kDisarmed when none. */
    Entry _at = kDisarmed;
    void (*_invoke)(void *);
    alignas(void *) unsigned char _action[2 * sizeof(void *)];
};

} // namespace mellowsim

#endif // MELLOWSIM_SIM_EVENT_QUEUE_HH
