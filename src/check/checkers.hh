/**
 * @file
 * The concrete invariant checkers.
 *
 * Each checker audits one cross-module contract:
 *
 *  - EventQueueChecker: simulated time is monotone, no pending event
 *    sits in the past, and every pending event is a heap entry or an
 *    armed pinned event.
 *  - RequestConservationChecker: every request admitted to the read /
 *    write / eager queues is eventually completed or cancelled exactly
 *    once — no loss, no double-completion — and pause/resume pair up.
 *  - BankStateChecker: bank write state machines are legal (never
 *    writing and paused at once, paused remainders are sane, busy-time
 *    accounting never exceeds the busy window, no lost completion
 *    events).
 *  - WearConservationChecker: per-bank wear tallies equal
 *    controller-issued writes minus cancellations, and wear units are
 *    non-negative.
 *  - EnergyCrossChecker: the energy model saw exactly the operations
 *    the controller issued.
 *  - WearQuotaChecker: Wear Quota budgets and latched ExceedQuota
 *    values stay consistent with the recorded wear.
 *  - FaultChecker: fault-injection bookkeeping is sound — retired
 *    lines are never issued writes, per-line repair budgets are never
 *    overdrawn, the retirement remap table is a bijection onto
 *    in-range spares, spare pools never overflow, and every permanent
 *    fault is accounted for as a repair, a retirement, or a dead line.
 *
 * Every checker follows the capture/evaluate split described in
 * invariant.hh: capture() reads the live components, evaluate() is a
 * pure function of the snapshot. Tests hand-build snapshots to inject
 * violations (see tests/test_invariants.cc).
 */

#ifndef MELLOWSIM_CHECK_CHECKERS_HH
#define MELLOWSIM_CHECK_CHECKERS_HH

#include <cstdint>
#include <vector>

#include "check/invariant.hh"
#include "nvm/controller.hh"
#include "sim/event_queue.hh"

namespace mellowsim
{

/** Audits the event queue's time invariants. */
class EventQueueChecker : public InvariantChecker
{
  public:
    struct Snapshot
    {
        Tick curTick = 0;
        Tick minPendingTick = MaxTick;
        std::size_t rawHeapSize = 0;
        std::size_t armedPinned = 0;
        std::size_t numPending = 0;
    };

    static Snapshot capture(const EventQueue &eventq);

    /** @p lastAuditTick is the curTick seen by the previous audit. */
    static void evaluate(const Snapshot &s, Tick lastAuditTick,
                         ViolationSink &sink);

    explicit EventQueueChecker(const EventQueue &eventq)
        : _eventq(eventq)
    {
    }

    [[nodiscard]] std::string name() const override { return "event-queue"; }
    void check(Tick now, ViolationSink &sink) override;

  private:
    const EventQueue &_eventq;
    Tick _lastAuditTick = 0;
};

/** Audits request conservation across one controller's queues. */
class RequestConservationChecker : public InvariantChecker
{
  public:
    struct Snapshot
    {
        // Reads.
        std::uint64_t demandReads = 0;
        std::uint64_t forwardedReads = 0;
        std::uint64_t issuedReads = 0;
        std::uint64_t queuedReads = 0;
        // Demand write backs.
        std::uint64_t acceptedWritebacks = 0;
        std::uint64_t completedDemandWrites = 0;
        std::uint64_t queuedDemandWrites = 0;
        std::uint64_t inFlightDemandWrites = 0; ///< incl. paused
        // Eager write backs.
        std::uint64_t acceptedEager = 0;
        std::uint64_t completedEagerWrites = 0;
        std::uint64_t queuedEagerWrites = 0;
        std::uint64_t inFlightEagerWrites = 0; ///< incl. paused
        // Write attempts.
        std::uint64_t issuedWriteAttempts = 0;
        std::uint64_t cancelledWrites = 0;
        std::uint64_t retriedWrites = 0; ///< verify failures reissued
        // Pause/resume pairing.
        std::uint64_t pausedWrites = 0;
        std::uint64_t resumedWrites = 0;
        std::uint64_t banksPausedNow = 0;
    };

    static Snapshot capture(const MemoryController &ctrl);
    static void evaluate(const Snapshot &s, ViolationSink &sink);

    RequestConservationChecker(const MemoryController &ctrl,
                               ChannelId channel)
        : _ctrl(ctrl), _channel(channel)
    {
    }

    [[nodiscard]] std::string name() const override;
    void check(Tick now, ViolationSink &sink) override;

  private:
    const MemoryController &_ctrl;
    ChannelId _channel;
};

/** Audits per-bank device state machines. */
class BankStateChecker : public InvariantChecker
{
  public:
    struct BankSnapshot
    {
        bool writing = false;
        bool paused = false;
        Tick busyUntil = 0;
        Tick trackerBusyUntil = 0;
        Tick trackerBusyTicks = 0;
        Tick remainingPulse = 0;
        Tick writePulse = 0;
    };

    struct Snapshot
    {
        std::vector<BankSnapshot> banks;
    };

    static Snapshot capture(const MemoryController &ctrl);
    static void evaluate(const Snapshot &s, Tick now,
                         ViolationSink &sink);

    BankStateChecker(const MemoryController &ctrl, ChannelId channel)
        : _ctrl(ctrl), _channel(channel)
    {
    }

    [[nodiscard]] std::string name() const override;
    void check(Tick now, ViolationSink &sink) override;

  private:
    const MemoryController &_ctrl;
    ChannelId _channel;
};

/** Audits wear-accounting conservation against controller counters. */
class WearConservationChecker : public InvariantChecker
{
  public:
    struct Snapshot
    {
        // Summed over banks from the wear tracker.
        std::uint64_t trackerNormalWrites = 0;
        std::uint64_t trackerSlowWrites = 0;
        std::uint64_t trackerCancelledWrites = 0;
        std::uint64_t trackerMaintenanceWrites = 0;
        double minBankWearUnits = 0.0;
        double totalWearUnits = 0.0;
        double maxBankWearUnits = 0.0;
        // Controller-side counters.
        std::uint64_t completedWrites = 0; ///< demand + eager
        std::uint64_t cancelledWrites = 0;
        std::uint64_t retriedWrites = 0;
        std::uint64_t maintenanceWrites = 0; ///< leveler copies
        std::uint64_t issuedWriteAttempts = 0;
        std::uint64_t inFlightWrites = 0; ///< incl. paused
    };

    static Snapshot capture(const MemoryController &ctrl);
    static void evaluate(const Snapshot &s, ViolationSink &sink);

    WearConservationChecker(const MemoryController &ctrl,
                            ChannelId channel)
        : _ctrl(ctrl), _channel(channel)
    {
    }

    [[nodiscard]] std::string name() const override;
    void check(Tick now, ViolationSink &sink) override;

  private:
    const MemoryController &_ctrl;
    ChannelId _channel;
};

/** Cross-checks the energy model against controller statistics. */
class EnergyCrossChecker : public InvariantChecker
{
  public:
    struct Snapshot
    {
        // Energy-model tallies.
        std::uint64_t energyNormalWrites = 0;
        std::uint64_t energySlowWrites = 0;
        std::uint64_t energyCancelledWrites = 0;
        std::uint64_t energyBufferReads = 0;
        std::uint64_t energyRowHitReads = 0;
        double readPj = 0.0;
        double writePj = 0.0;
        // Controller-side counters.
        std::uint64_t completedWrites = 0; ///< demand + eager
        std::uint64_t cancelledWrites = 0;
        std::uint64_t retriedWrites = 0;
        std::uint64_t maintenanceWrites = 0; ///< leveler copies
        std::uint64_t issuedReads = 0;
        std::uint64_t rowHitReads = 0;
        std::uint64_t rowMissReads = 0;
    };

    static Snapshot capture(const MemoryController &ctrl);
    static void evaluate(const Snapshot &s, ViolationSink &sink);

    EnergyCrossChecker(const MemoryController &ctrl, ChannelId channel)
        : _ctrl(ctrl), _channel(channel)
    {
    }

    [[nodiscard]] std::string name() const override;
    void check(Tick now, ViolationSink &sink) override;

  private:
    const MemoryController &_ctrl;
    ChannelId _channel;
};

/** Audits Wear Quota bookkeeping (only meaningful with +WQ). */
class WearQuotaChecker : public InvariantChecker
{
  public:
    struct BankSnapshot
    {
        double wear = 0.0;
        double exceed = 0.0;
        std::uint64_t slowOnlyPeriods = 0;
    };

    struct Snapshot
    {
        double wearBoundBank = 0.0;
        std::uint64_t numPeriods = 0;
        std::vector<BankSnapshot> banks;
    };

    static Snapshot capture(const WearQuota &quota, unsigned numBanks);
    static void evaluate(const Snapshot &s, ViolationSink &sink);

    WearQuotaChecker(const MemoryController &ctrl, ChannelId channel)
        : _ctrl(ctrl), _channel(channel)
    {
    }

    [[nodiscard]] std::string name() const override;
    void check(Tick now, ViolationSink &sink) override;

  private:
    const MemoryController &_ctrl;
    ChannelId _channel;
};

/** Audits fault-injection bookkeeping (see file comment). */
class FaultChecker : public InvariantChecker
{
  public:
    struct Snapshot
    {
        // Fault-model tallies.
        std::uint64_t writesToRetiredLines = 0;
        std::uint64_t maxRepairsOnLine = 0;
        std::uint64_t remapEntries = 0;
        /** Retirements routed through a unified-remap delegate
         *  (WoLFRaM): they consume no table entry, so the bijection
         *  check is remapEntries + delegateRetiredLines ==
         *  retiredLines. */
        std::uint64_t delegateRetiredLines = 0;
        bool remapValid = true;
        std::uint64_t retiredLines = 0;
        std::uint64_t deadLines = 0;
        std::uint64_t repairsUsed = 0;
        std::uint64_t permanentFaults = 0;
        std::uint64_t maxSparesUsed = 0;
        std::uint64_t retriesRequested = 0;
        Tick firstFaultTick = 0;
        Tick firstUncorrectableTick = 0;
        // Configured limits.
        std::uint64_t repairEntriesPerLine = 0;
        std::uint64_t spareLinesPerBank = 0;
        // Controller-side counter.
        std::uint64_t ctrlRetriedWrites = 0;
    };

    static Snapshot capture(const MemoryController &ctrl);
    static void evaluate(const Snapshot &s, ViolationSink &sink);

    FaultChecker(const MemoryController &ctrl, ChannelId channel)
        : _ctrl(ctrl), _channel(channel)
    {
    }

    [[nodiscard]] std::string name() const override;
    void check(Tick now, ViolationSink &sink) override;

  private:
    const MemoryController &_ctrl;
    ChannelId _channel;
};

} // namespace mellowsim

#endif // MELLOWSIM_CHECK_CHECKERS_HH
