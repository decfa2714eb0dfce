/**
 * @file
 * NVMain-like resistive main-memory controller.
 *
 * Implements the Table II memory system: three request queues (read,
 * write, eager mellow) with read > write > eager priority, write-drain
 * mode with high/low thresholds, open-page row buffers for reads,
 * write-through writes, tFAW-limited activates, a shared data bus, and
 * write cancellation. Every write issue consults the Figure 9
 * decision logic (mellow/decision.hh), and completed writes feed the
 * wear tracker, the energy model, and — with +WQ — the Wear Quota.
 */

#ifndef MELLOWSIM_NVM_CONTROLLER_HH
#define MELLOWSIM_NVM_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "energy/energy_model.hh"
#include "fault/fault_model.hh"
#include "mellow/decision.hh"
#include "mellow/policy.hh"
#include "mellow/wear_quota.hh"
#include "nvm/address_map.hh"
#include "nvm/bank.hh"
#include "nvm/memory_port.hh"
#include "nvm/queues.hh"
#include "nvm/request.hh"
#include "nvm/timing.hh"
#include "sim/event_queue.hh"
#include "sim/indexed.hh"
#include "sim/stats.hh"
#include "wear/endurance_model.hh"
#include "wear/wear_tracker.hh"

namespace mellowsim
{

/** Controller configuration (Table II defaults). */
struct MemControllerConfig
{
    MemGeometry geometry;
    NvmTimingParams timing;
    WritePolicyConfig policy;

    unsigned readQueueSize = 32;
    unsigned writeQueueSize = 32;  ///< also the drain-high threshold
    unsigned eagerQueueSize = 16;
    unsigned drainLowThreshold = 16;

    /**
     * How many bus-bursts of data-bus backlog an issue may reserve
     * ahead of time (pipelining depth of the channel).
     */
    unsigned busLeadBursts = 8;

    /** Latency of a read forwarded from a queued write. */
    // mlint: allow(timing-literal): compiled-in default mirrored by
    // the ForwardLatencyNs config key
    Tick forwardLatency = Tick(22.5 * kNanosecond);

    /** Scale factor on the proportional wear of a cancelled pulse. */
    double cancelWearFraction = 1.0;

    /**
     * A write that has already been cancelled this many times issues
     * non-cancellable, bounding read-induced write starvation (and
     * the drain spiral it would otherwise cause under streaming
     * read/write interleavings).
     */
    unsigned maxWriteCancellations = 4;

    /**
     * A bank that received a demand read in the last this-many ticks
     * counts as read-active: eager writes skip it, and the Bank-Aware
     * single-write slow decision downgrades to a normal write (Wear
     * Quota and globally-slow policies are never downgraded). This
     * implements Figure 9's "no requests for the bank" intent at
     * fine timing granularity — a streaming read cursor drains its
     * bank's queue between arrivals, so the queue-occupancy test
     * alone would park slow writes right in front of incoming reads.
     * Zero disables the guard.
     */
    // mlint: allow(timing-literal): compiled-in default mirrored by
    // the RecentReadWindowNs config key
    Tick recentReadWindow = 300 * kNanosecond;

    EnduranceParams endurance;
    EnergyParams energy;
    WearQuotaConfig quota;
    /**
     * Fault injection (off by default). numBanks/blocksPerBank are
     * overwritten from the geometry when the model is instantiated.
     */
    FaultConfig fault;
    /** Leveling efficiency for the lifetime extrapolation. */
    double levelingEfficiency = 0.9;
    /**
     * Wear-leveling scheme. It acts only under fault injection: the
     * controller then owns one live leveler per bank on the issue
     * path (LineIndex -> LeveledAddr -> DeviceAddr) and charges its
     * maintenance copies as real write traffic. Without faults the
     * lifetime extrapolation assumes leveled wear (see
     * levelingEfficiency) and no leveler runs.
     */
    WearLevelerKind wearLeveler = WearLevelerKind::StartGap;
    /** Leveler maintenance period in writes (gap move/refresh step). */
    std::uint64_t gapWritePeriod = 100;
    /** Key seed for randomized levelers (per-bank offset applied). */
    std::uint64_t levelerSeed = 0xBADC0DE5ull;
    /** SoftWear: blocks per software-managed page. */
    std::uint64_t softWearPageBlocks = 64;
    /** SoftWear: every Nth write bumps a page counter. */
    std::uint64_t softWearSamplePeriod = 8;
    /** SoftWear: sampled writes since relocation that trigger one. */
    std::uint64_t softWearRelocThreshold = 16;
};

/** Aggregated controller statistics. */
struct MemControllerStats
{
    stats::Counter demandReads;     ///< accepted demand reads
    stats::Counter forwardedReads;  ///< served from a queued write
    stats::Counter issuedReads;     ///< issued to a bank
    stats::Counter rowHitReads;
    stats::Counter rowMissReads;

    stats::Counter acceptedWritebacks; ///< demand writes from the LLC
    stats::Counter acceptedEager;      ///< eager writes from the LLC
    stats::Counter rejectedEager;      ///< eager queue full

    stats::Counter issuedNormalWrites; ///< demand, normal speed
    stats::Counter issuedSlowWrites;   ///< demand, slow speed
    stats::Counter issuedEagerNormal;  ///< eager, normal speed (E-Norm)
    stats::Counter issuedEagerSlow;    ///< eager, slow speed
    stats::Counter cancelledWrites;    ///< aborted attempts
    stats::Counter pausedWrites;       ///< +WP pauses
    stats::Counter resumedWrites;      ///< +WP resumptions
    stats::Counter completedDemandWrites; ///< demand writes finished
    stats::Counter completedEagerWrites;  ///< eager writes finished
    /** Write-verify failures reissued with a slower pulse. */
    stats::Counter retriedWrites;
    /**
     * Wear-leveler maintenance writes (gap moves, refresh swaps,
     * SoftWear/WoLFRaM migration copies) charged as real traffic by
     * the controller-owned levelers. Not part of totalWriteIssues():
     * they carry no request, occupy the bank out of band, and the
     * wear/energy checkers tie them out separately.
     */
    stats::Counter maintenanceWrites;

    stats::Counter drainEntries;
    stats::Average readLatency;   ///< arrival to data delivered, ticks

    /**
     * Total write attempts issued to banks. Issue counters are
     * incremented per attempt, so cancelled attempts (and their
     * retries) are already included.
     */
    [[nodiscard]] std::uint64_t
    totalWriteIssues() const
    {
        return issuedNormalWrites.value() + issuedSlowWrites.value() +
               issuedEagerNormal.value() + issuedEagerSlow.value();
    }
};

/**
 * The memory controller. One instance per channel (the evaluated
 * system has a single channel).
 */
class MemoryController : public MemoryPort
{
  public:
    MemoryController(EventQueue &eventq, const MemControllerConfig &config);

    // --- LLC-facing interface -------------------------------------
    /** Enqueue a demand read; @p onComplete fires when data arrives. */
    void read(LogicalAddr addr, ReadCallback onComplete) override;

    /** Enqueue a demand write back (dirty eviction). */
    void writeback(LogicalAddr addr) override;

    /**
     * Enqueue an eager mellow write back.
     * @retval false the eager queue is full; the LLC keeps the line
     *               dirty and may try again later.
     */
    bool eagerWrite(LogicalAddr addr) override;

    /** True if the eager queue has room. */
    [[nodiscard]] bool eagerQueueHasSpace() const override;

    /** Outstanding demand reads (for MSHR-style admission checks). */
    [[nodiscard]] std::size_t pendingReads() const;

    // --- End-of-run ------------------------------------------------
    /** Truncate busy/drain accounting at the current tick. */
    void finalize();

    // --- Introspection ----------------------------------------------
    [[nodiscard]] const MemControllerStats &stats() const
    {
        return _stats;
    }
    [[nodiscard]] const WearTracker &wearTracker() const
    {
        return _wear;
    }
    [[nodiscard]] const EnergyModel &energyModel() const
    {
        return _energy;
    }
    [[nodiscard]] const WearQuota *wearQuota() const
    {
        return _quota.get();
    }
    [[nodiscard]] const FaultModel *faultModel() const
    {
        return _faults.get();
    }
    [[nodiscard]] const MemControllerConfig &config() const
    {
        return _config;
    }
    [[nodiscard]] const AddressMap &addressMap() const { return _map; }

    /** Fraction of [0, now] spent in write-drain mode. */
    [[nodiscard]] double drainTimeFraction() const;

    /** Mean bank utilisation over [0, now]. */
    [[nodiscard]] double avgBankUtilization() const;

    /** Utilisation of a single bank over [0, now]. */
    [[nodiscard]] double bankUtilization(BankId bank) const;

    [[nodiscard]] bool draining() const { return _draining; }

    // --- Audit accessors (src/check/) -----------------------------
    [[nodiscard]] unsigned numBanks() const
    {
        return _config.geometry.numBanks;
    }

    /** Device state of one bank, for auditing and tests. */
    [[nodiscard]] const Bank &bank(BankId idx) const;

    /**
     * The controller-owned issue-path leveler of one bank, or null
     * when fault injection is disabled (no leveling on that path).
     */
    [[nodiscard]] const WearLeveler *issueLeveler(BankId idx) const
    {
        return _levelers[idx].get();
    }

    [[nodiscard]] std::size_t readQueueDepth() const
    {
        return _readQ.size();
    }
    [[nodiscard]] std::size_t writeQueueDepth() const
    {
        return _writeQ.size();
    }
    [[nodiscard]] std::size_t eagerQueueDepth() const
    {
        return _eagerQ.size();
    }

  private:
    // --- Scheduling -------------------------------------------------
    /** Run one scheduling pass; issues everything issueable now. */
    void trySchedule();

    /** Request a (deduplicated) scheduling pass at tick @p when. */
    void requestSchedule(Tick when);

    /** Issue the oldest read for @p bank if possible. */
    bool tryIssueRead(BankId bank, Tick now, Tick *nextWake);

    /** Issue a write/eager write for @p bank per Figure 9. */
    bool tryIssueWrite(BankId bank, Tick now, Tick *nextWake);

    /** Cancel the bank's in-flight write and requeue it. */
    void cancelBankWrite(BankId bank, Tick now);

    /** Pause the bank's in-flight write (+WP). */
    void pauseBankWrite(BankId bank, Tick now);

    /**
     * +ML: pick the largest configured latency factor whose pulse
     * fits the bank's observed quiet time (see WritePolicyConfig).
     */
    [[nodiscard]] PulseFactor chooseAdaptiveFactor(BankId bank,
                                                   Tick now) const;

    /**
     * Device line a request targets: leveler rotation first (when the
     * controller owns levelers), then the retirement indirection —
     * unless the leveler owns the fault remap itself (WoLFRaM), in
     * which case its output is already final.
     */
    [[nodiscard]] DeviceAddr deviceLineFor(const MemRequest &req) const;

    /**
     * Advance the bank's leveler after a completed demand pulse to
     * logical block @p written and charge all resulting maintenance
     * writes (gap moves, swaps, queued migrations) as real traffic.
     */
    void runLevelerMaintenance(BankId bank, LineIndex written,
                               Tick now);

    /** Charge one maintenance write to leveled block @p block. */
    void chargeMaintenanceWrite(BankId bank, LeveledAddr block,
                                Tick now);

    /** Reserve the data bus; returns the burst start tick. */
    Tick reserveBus(Tick earliest);

    /** True if the bus backlog allows another reservation at @p now. */
    [[nodiscard]] bool busAvailable(Tick now, Tick *nextWake) const;

    void updateDrainState(Tick now);

    /**
     * Complete the bank's in-flight write at @p when, unless it is
     * cancelled or paused first (see _writeAttempt).
     */
    void scheduleWriteCompletion(BankId bank, Tick when);
    void onWriteComplete(BankId bank);
    void onQuotaPeriod();

    [[nodiscard]] bool quotaExceeded(BankId bank) const;
    [[nodiscard]] BankQueueView bankView(BankId bank) const;

    EventQueue &_eventq;
    MemControllerConfig _config;
    AddressMap _map;
    NvmTimingParams _timing;
    Tick _slowPulse;

    /**
     * Block numbers of every queued write and eager write: the one
     * index read forwarding looks up. Declared before the queues
     * that count into it.
     */
    FlatCounter<std::uint64_t> _pendingWriteBlocks;
    RequestQueue _readQ;
    RequestQueue _writeQ;
    RequestQueue _eagerQ;

    IndexedVector<BankId, Bank> _banks;
    std::vector<Rank> _ranks; ///< indexed by the raw rank number
    /**
     * Attempt number of each bank's in-flight write. A write
     * completion fires only if the number it captured is still
     * current; cancelling or pausing the write bumps it, so the
     * aborted attempt's completion fires as a no-op.
     */
    IndexedVector<BankId, std::uint32_t> _writeAttempt;
    /** Arrival tick of the last demand read per bank (0 = never). */
    IndexedVector<BankId, Tick> _lastReadArrival;
    /**
     * Banks holding a paused (+WP) write. Unioned with the queues'
     * non-empty masks so the scheduling pass still visits a bank
     * whose only pending work is a parked resume.
     */
    IndexMask<BankId> _pausedBanks;
    /**
     * The banks one scheduler pass visits, sized at construction and
     * overwritten in place by every pass, so a pass allocates nothing.
     */
    IndexMask<BankId> _passBanks;

    Tick _busNextFree = 0;

    bool _draining = false;
    Tick _drainStart = 0;
    Tick _drainTicks = 0;

    EnduranceModel _endurance;
    WearTracker _wear;
    EnergyModel _energy;
    std::unique_ptr<WearQuota> _quota;
    std::unique_ptr<FaultModel> _faults;
    /**
     * Controller-owned wear levelers, one per bank; populated only
     * when fault injection is enabled (the unified remap path). All
     * slots stay null otherwise and the issue path is the identity
     * LineIndex -> DeviceAddr of the seed behaviour.
     */
    IndexedVector<BankId, std::unique_ptr<WearLeveler>> _levelers;

    MemControllerStats _stats;

    /** The scheduler pass; pending at most once, at its earliest request. */
    EventQueue::PinnedEvent _pass;
};

} // namespace mellowsim

#endif // MELLOWSIM_NVM_CONTROLLER_HH
