/**
 * @file
 * The last-level cache with the Eager Mellow Writes machinery.
 *
 * Wraps the LLC array with (1) the useless-LRU-position profiler and
 * its T_sample event, and (2) the eager scanner of Figure 8: whenever
 * the eager queue has room, periodically pick a random set, find the
 * least-recently-used dirty line in a useless stack position, send it
 * to the controller's eager queue and mark it clean *without evicting
 * it*. A later store to such a line re-dirties it and counts the
 * eager write as wasted (Figure 14's write increase).
 */

#ifndef MELLOWSIM_CACHE_LLC_HH
#define MELLOWSIM_CACHE_LLC_HH

#include <cstdint>
#include <span>
#include <vector>

#include "cache/cache.hh"
#include "cache/eager_profiler.hh"
#include "nvm/memory_port.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace mellowsim
{

/**
 * How the LLC picks eager write-back candidates.
 *
 * UselessLru is the paper's Section IV-B1 scheme. DecayDeadBlock is
 * the paper's suggested future improvement (Section VII, "Dead Block
 * Prediction"): a dirty line untouched for `deadAfterPeriods` whole
 * profiling periods is predicted dead and eagerly written back
 * regardless of its stack position (a decay predictor in the style
 * of Kaxiras et al.).
 */
enum class EagerSelector
{
    UselessLru,
    DecayDeadBlock,
};

/** LLC configuration (Table I defaults). */
struct LlcConfig
{
    // mlint: allow(timing-literal): CPU-side SRAM latency (Table I),
    // not an NVM device timing
    CacheConfig cache{"LLC", 2ull * 1024 * 1024, 16,
                      Tick(17.5 * kNanosecond)};
    EagerProfilerConfig profiler;
    /**
     * How often the idle LLC gets a chance to pick an eager
     * candidate. The paper allows one attempt per idle LLC cycle; a
     * few CPU cycles per attempt is a faithful, cheaper stand-in.
     */
    // mlint: allow(timing-literal): eager-scan cadence is a simulator
    // knob, not a device datasheet timing
    Tick scanInterval = 4 * kNanosecond;
    /** Eager write backs enabled (the E- and BE- policies). */
    bool eagerEnabled = false;
    /** Candidate selection scheme. */
    EagerSelector selector = EagerSelector::UselessLru;
    /** DecayDeadBlock: periods of silence before a line is dead. */
    unsigned deadAfterPeriods = 1;
};

/** LLC-side statistics (Figure 14's request breakdown). */
struct LlcStats
{
    stats::Counter demandReads;   ///< read requests reaching the LLC
    stats::Counter demandWrites;  ///< write backs from L2
    stats::Counter hits;
    stats::Counter misses;
    stats::Counter writebacksToMem; ///< dirty demand evictions
    stats::Counter cleanEvictions;  ///< clean demand evictions
    stats::Counter eagerSent;       ///< accepted into the eager queue
    stats::Counter eagerWasted;     ///< eagerly-cleaned line re-dirtied
    stats::Counter eagerScans;      ///< scan ticks with queue space
};

/** See file comment. */
class Llc
{
  public:
    Llc(EventQueue &eventq, const LlcConfig &config,
        MemoryPort &controller, std::uint64_t seed);

    /**
     * Demand access from the L2 side.
     * Updates LRU, profiler counters and dirty state; on a write to
     * an eagerly-cleaned line, counts the waste.
     */
    CacheAccessResult access(LogicalAddr addr, bool isWrite);

    /** Write back from L2 (no LRU promotion; allocates on miss). */
    void writebackFromUpper(LogicalAddr addr);

    /** Install a line fetched from memory (clean). */
    void fillFromMemory(LogicalAddr addr);

    /** Warm-up touch: no statistics, no profiler, no memory traffic. */
    void prime(LogicalAddr addr, bool dirty);

    /** Warm-up touches of a batch, in stream order (see prime()). */
    void prime(std::span<const PrimeOp> ops, PrimeScratch &scratch);

    [[nodiscard]] const LlcStats &stats() const { return _stats; }

    /**
     * Whole-run hit counts per LRU stack position (the profiler's own
     * counters reset every T_sample; these never reset). Drives the
     * Figure 7 reproduction.
     */
    [[nodiscard]] const std::vector<std::uint64_t> &
    cumulativeHitsByPos() const
    {
        return _cumHits;
    }

    [[nodiscard]] const EagerProfiler &profiler() const
    {
        return _profiler;
    }
    [[nodiscard]] const SetAssocCache &array() const { return _array; }
    [[nodiscard]] const LlcConfig &config() const { return _config; }

    /** Current profiling period number (the decay stamp domain). */
    [[nodiscard]] std::uint32_t currentPeriod() const
    {
        return _period;
    }

  private:
    void onSamplePeriod();
    void onScan();
    void handleVictim(const CacheVictim &victim);
    /**
     * Stack position of set @p setIdx's eager candidate under the
     * active selector, or -1 if the set has none.
     */
    [[nodiscard]] int eagerCandidate(std::uint64_t setIdx) const;

    EventQueue &_eventq;
    LlcConfig _config;
    MemoryPort &_controller;
    SetAssocCache _array;
    EagerProfiler _profiler;
    Rng _rng;
    LlcStats _stats;
    std::vector<std::uint64_t> _cumHits;
    std::uint32_t _period = 0;
    /** The eager scan; armed only when eager writes are enabled. */
    EventQueue::PinnedEvent _scan;
};

} // namespace mellowsim

#endif // MELLOWSIM_CACHE_LLC_HH
