/**
 * @file
 * The three-level data-cache hierarchy of Table I.
 *
 * L1D 32 KB / 4-way / 2 cycles, L2 256 KB / 8-way / 12 cycles, LLC
 * 2 MB / 16-way / 35 cycles, 64-byte lines, write-back write-allocate
 * everywhere, LLC misses limited by 32 MSHRs with same-block merging.
 *
 * Timing model: hits complete after the summed lookup latencies of
 * the levels visited; an LLC miss sends a read to the memory
 * controller after the full lookup path and completes when the
 * controller delivers data. The hierarchy is functional (tags, LRU,
 * dirty bits are exact); contention below the LLC is modelled by the
 * controller.
 */

#ifndef MELLOWSIM_CACHE_HIERARCHY_HH
#define MELLOWSIM_CACHE_HIERARCHY_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cache/cache.hh"
#include "cache/llc.hh"
#include "nvm/memory_port.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace mellowsim
{

/** Configuration of the full hierarchy (Table I defaults). */
struct HierarchyConfig
{
    // mlint: allow(timing-literal): CPU-side SRAM latency (Table I),
    // not an NVM device timing
    CacheConfig l1{"L1D", 32 * 1024, 4, 1 * kNanosecond};
    // mlint: allow(timing-literal): CPU-side SRAM latency (Table I),
    // not an NVM device timing
    CacheConfig l2{"L2", 256 * 1024, 8, 6 * kNanosecond};
    LlcConfig llc;
    /** Outstanding LLC misses (Table I: 32-MSHR LLC). */
    unsigned llcMshrs = 32;
};

/** How an access concluded at issue time. */
enum class AccessOutcome
{
    Hit,     ///< completes after `latency` ticks, no callback
    Miss,    ///< the completion callback will fire
    Blocked, ///< MSHRs full; retry after the retry callback fires
};

/** Issue-time result of Hierarchy::access(). */
struct AccessTicket
{
    AccessOutcome outcome = AccessOutcome::Hit;
    Tick latency = 0; ///< valid for Hit
};

/** Hierarchy statistics. */
struct HierarchyStats
{
    stats::Counter accesses;
    stats::Counter l1Hits;
    stats::Counter l2Hits;
    stats::Counter llcHits;
    stats::Counter llcMisses;  ///< demand misses sent to memory
    stats::Counter mshrMerges; ///< coalesced same-block misses
    stats::Counter blocked;    ///< rejected: MSHRs full
};

/** See file comment. */
class Hierarchy
{
  public:
    using Callback = std::function<void()>;

    Hierarchy(EventQueue &eventq, const HierarchyConfig &config,
              MemoryPort &controller, std::uint64_t seed);

    /**
     * Perform one demand access.
     *
     * @param addr     Byte address.
     * @param isWrite  Store?
     * @param done     Fired at completion for Miss outcomes.
     * @return Issue-time ticket (see AccessOutcome).
     */
    AccessTicket access(LogicalAddr addr, bool isWrite, Callback done);

    /**
     * Register the (single) consumer to poke when a Blocked access
     * may be retried. Fired at most once per blocking episode.
     */
    void setRetryCallback(Callback cb) { _retryCb = std::move(cb); }

    /**
     * Functionally touch a block (warm-up): installs/updates the line
     * in all levels with no timing, statistics, or memory traffic.
     * Victims are dropped silently.
     */
    void prime(LogicalAddr addr, bool isWrite);

    /**
     * Prime every op of @p ops in stream order, level-major: all of
     * L1, then all of L2, then all of the LLC. A level's prime never
     * looks at another level, so the final state equals priming the
     * ops one at a time through every level. A level walks the batch
     * backwards from its newest op where that pays, and stops once
     * older ops cannot change it (SetAssocCache::prime); @p scratch
     * holds the walk's state across the batches of one warm-up.
     */
    void prime(std::span<const PrimeOp> ops, PrimeScratch &scratch);

    /**
     * A scratch for batches of up to @p capacity ops that can walk
     * every level of this hierarchy.
     */
    [[nodiscard]] PrimeScratch primeScratch(std::size_t capacity) const;

    [[nodiscard]] const HierarchyStats &stats() const { return _stats; }
    [[nodiscard]] const SetAssocCache &l1() const { return _l1; }
    [[nodiscard]] const SetAssocCache &l2() const { return _l2; }
    [[nodiscard]] Llc &llc() { return _llc; }
    [[nodiscard]] const Llc &llc() const { return _llc; }

    /** Outstanding LLC misses (MSHR occupancy). */
    [[nodiscard]] std::size_t outstandingMisses() const
    {
        return _mshrsInUse;
    }

  private:
    /** No waiter or no MSHR: a list's end, or nothing found. */
    static constexpr std::uint32_t kNone = UINT32_MAX;

    /** One access waiting on a miss: a node of the shared pool. */
    struct MshrWaiter
    {
        bool isWrite = false;
        Callback done;
        std::uint32_t next = kNone; ///< next waiter, or free node
    };

    /**
     * One outstanding LLC miss. In use while its waiter list is
     * non-empty; the list runs in arrival order.
     */
    struct Mshr
    {
        LogicalAddr block;
        std::uint32_t head = kNone;
        std::uint32_t tail = kNone;
    };

    /** Take a pool node for a waiter; grows the pool only if empty. */
    std::uint32_t takeWaiter(bool isWrite, Callback done);
    void onFill(std::uint32_t entry);
    void writeIntoL2(LogicalAddr blockAddr);
    void writeIntoLlc(LogicalAddr blockAddr);
    /** Install a block into L2 and L1 after an LLC hit or fill. */
    void fillUpper(LogicalAddr blockAddr, bool dirtyInL1);

    EventQueue &_eventq;
    MemoryPort &_controller;
    SetAssocCache _l1;
    SetAssocCache _l2;
    Llc _llc;

    /**
     * The MSHR table (llcMshrs entries) and the waiter pool its lists
     * thread through, both allocated at construction. The pool starts
     * at one waiter per MSHR; a caller that keeps more accesses
     * waiting at once grows it, after which it is reused.
     */
    std::vector<Mshr> _mshrs;
    std::size_t _mshrsInUse = 0;
    std::vector<MshrWaiter> _waiters;
    std::uint32_t _freeWaiters = kNone;
    bool _blockedEpisode = false;
    Callback _retryCb;

    HierarchyStats _stats;
};

} // namespace mellowsim

#endif // MELLOWSIM_CACHE_HIERARCHY_HH
