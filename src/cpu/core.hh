/**
 * @file
 * Trace-driven out-of-order core model (Table I).
 *
 * The core consumes the workload's operation stream and models the
 * three constraints through which memory timing shapes IPC on an OoO
 * machine:
 *
 *  1. issue bandwidth: instructions dispatch at `issueWidth` per
 *     cycle (compute gaps advance the dispatch clock accordingly);
 *  2. the reorder buffer: dispatch stalls when the oldest
 *     unfinished load is `robSize` instructions behind;
 *  3. memory-level parallelism: at most `maxOutstanding` misses may
 *     be in flight (L1 MSHRs), and dependent accesses (pointer
 *     chases, the store half of an RMW) serialise behind their
 *     producer.
 *
 * Stores retire through a store buffer: they never stall dispatch for
 * completion, but their misses occupy MSHRs.
 *
 * This is the standard trace-driven front-end used by memory-system
 * simulators (USIMM, DRAMSim2); see DESIGN.md "Substitutions" for why
 * it suffices for the paper's experiments.
 */

#ifndef MELLOWSIM_CPU_CORE_HH
#define MELLOWSIM_CPU_CORE_HH

#include <cstdint>

#include "cache/hierarchy.hh"
#include "sim/event_queue.hh"
#include "sim/index_ring.hh"
#include "sim/types.hh"
#include "workload/workload.hh"

namespace mellowsim
{

/** Core configuration (Table I defaults). */
struct CoreConfig
{
    /** 2 GHz. */
    // mlint: allow(timing-literal): CPU core clock (Table I), not an
    // NVM device timing
    Tick clockPeriod = 500 * kPicosecond;
    unsigned issueWidth = 8;
    unsigned robSize = 192;
    /** Outstanding misses (L1D MSHRs). */
    unsigned maxOutstanding = 8;
};

/** Core statistics. */
struct CoreStats
{
    std::uint64_t instructions = 0;
    std::uint64_t memOps = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t robStalls = 0;
    std::uint64_t mshrStalls = 0;
    std::uint64_t depStalls = 0;
};

/** See file comment. */
class TraceCore
{
  public:
    TraceCore(EventQueue &eventq, const CoreConfig &config,
              Workload &workload, Hierarchy &hierarchy);

    /** Begin execution; the core retires @p instrLimit instructions. */
    void start(std::uint64_t instrLimit);

    [[nodiscard]] bool done() const { return _done; }

    /** Tick at which the last instruction dispatched. */
    [[nodiscard]] Tick finishTick() const { return _finishTick; }

    /** Instructions per (core) cycle over the whole run. */
    [[nodiscard]] double ipc() const;

    /**
     * Instructions dispatched so far, valid mid-run — the runner uses
     * it to report partial progress when a simulation stops early at
     * the end-of-life capacity floor (stats().instructions is only
     * finalised when the core completes its limit).
     */
    [[nodiscard]] std::uint64_t instructionsDispatched() const
    {
        return _seq;
    }

    [[nodiscard]] const CoreStats &stats() const { return _stats; }
    [[nodiscard]] const CoreConfig &config() const { return _config; }

    /**
     * Data for load @p id has arrived (the load's miss callback).
     * Panics unless @p id is a load still pending in the window, so a
     * double completion fails loudly.
     */
    void onLoadComplete(std::uint64_t id);

  private:
    struct LoadEntry
    {
        std::uint64_t id;
        std::uint64_t seq;      ///< instruction number
        Tick complete;          ///< MaxTick while pending
    };

    /** Main processing loop; runs until blocked or done. */
    void process();

    /** Resume after a completion while blocked. */
    void resume();

    /** Advance the dispatch clock by @p instructions instructions. */
    void advanceDispatch(std::uint64_t instructions);

    /** Drop retired loads from the window head. */
    void pruneRetired();

    void onStoreComplete();

    EventQueue &_eventq;
    CoreConfig _config;
    Workload &_workload;
    Hierarchy &_hierarchy;

    std::uint64_t _instrLimit = 0;
    bool _started = false;
    bool _done = false;
    Tick _finishTick = 0;

    /** Dispatch clock and sub-tick accumulator (tick*instr units). */
    Tick _dispatchTick = 0;
    Tick _subTicks = 0;

    std::uint64_t _seq = 0;
    std::uint64_t _nextLoadId = 1;

    /**
     * Loads in program order. Ids run consecutively along the window,
     * so load `id` sits at `id - front().id`. The ROB check before
     * every push keeps it within robSize entries, the capacity it is
     * built with, so it never grows.
     */
    RingDeque<LoadEntry> _window;
    unsigned _pendingLoads = 0; ///< load misses in flight
    unsigned _pendingStores = 0;

    Tick _lastLoadComplete = 0;
    bool _lastLoadPending = false;
    std::uint64_t _lastLoadId = 0;

    /** The op being dispatched (fetched but not yet issued). */
    Op _currentOp;
    bool _currentOpValid = false;
    bool _gapAccounted = false;

    /** Blocked waiting for some completion callback. */
    bool _waitingCompletion = false;
    /** Blocked waiting for the hierarchy's MSHR retry. */
    bool _waitingRetry = false;

    CoreStats _stats;
};

} // namespace mellowsim

#endif // MELLOWSIM_CPU_CORE_HH
