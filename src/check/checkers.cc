#include "check/checkers.hh"

#include <cmath>

#include "sim/logging.hh"

namespace mellowsim
{

namespace
{

/**
 * Tolerance for floating-point wear/energy comparisons: the tallies
 * are long sums of small doubles, so exact equality is not expected.
 */
constexpr double kRelEps = 1e-9;

bool
approxLessOrEqual(double a, double b)
{
    double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
    return a <= b + kRelEps * scale;
}

/** Demand + eager writes completed by the controller. */
std::uint64_t
completedWrites(const MemControllerStats &s)
{
    return s.completedDemandWrites.value() +
           s.completedEagerWrites.value();
}

/** Per-bank in-flight (issued or paused) write attempts by type. */
void
countInFlightWrites(const MemoryController &ctrl, std::uint64_t *demand,
                    std::uint64_t *eager, std::uint64_t *paused)
{
    *demand = *eager = *paused = 0;
    for (unsigned b = 0; b < ctrl.numBanks(); ++b) {
        const Bank &bank = ctrl.bank(BankId(b));
        if (bank.hasPausedWrite())
            ++*paused;
        if (!bank.writeInFlight() && !bank.hasPausedWrite())
            continue;
        if (bank.currentWriteType() == ReqType::EagerWrite)
            ++*eager;
        else
            ++*demand;
    }
}

} // namespace

// --- EventQueueChecker ---------------------------------------------

EventQueueChecker::Snapshot
EventQueueChecker::capture(const EventQueue &eventq)
{
    Snapshot s;
    s.curTick = eventq.curTick();
    s.minPendingTick = eventq.minPendingTick();
    s.rawHeapSize = eventq.rawHeapSize();
    s.armedPinned = eventq.armedPinned();
    s.numPending = eventq.numPending();
    return s;
}

void
EventQueueChecker::evaluate(const Snapshot &s, Tick lastAuditTick,
                            ViolationSink &sink)
{
    if (s.curTick < lastAuditTick) {
        sink.add(logFormat("time ran backwards: curTick %llu < last "
                           "audited tick %llu",
                           static_cast<unsigned long long>(s.curTick),
                           static_cast<unsigned long long>(
                               lastAuditTick)));
    }
    if (s.minPendingTick < s.curTick) {
        sink.add(logFormat(
            "pending event in the past: earliest heap entry or armed "
            "pinned event at tick %llu but curTick is %llu",
            static_cast<unsigned long long>(s.minPendingTick),
            static_cast<unsigned long long>(s.curTick)));
    }
    // Every pending event is a live heap entry or an armed pinned
    // event.
    if (s.rawHeapSize + s.armedPinned < s.numPending) {
        sink.add(logFormat(
            "event bookkeeping skew: %zu live events but only %zu "
            "heap entries and %zu armed pinned events",
            s.numPending, s.rawHeapSize, s.armedPinned));
    }
}

void
EventQueueChecker::check(Tick now, ViolationSink &sink)
{
    evaluate(capture(_eventq), _lastAuditTick, sink);
    _lastAuditTick = now;
}

// --- RequestConservationChecker ------------------------------------

RequestConservationChecker::Snapshot
RequestConservationChecker::capture(const MemoryController &ctrl)
{
    const MemControllerStats &st = ctrl.stats();
    Snapshot s;
    s.demandReads = st.demandReads.value();
    s.forwardedReads = st.forwardedReads.value();
    s.issuedReads = st.issuedReads.value();
    s.queuedReads = ctrl.readQueueDepth();

    s.acceptedWritebacks = st.acceptedWritebacks.value();
    s.completedDemandWrites = st.completedDemandWrites.value();
    s.queuedDemandWrites = ctrl.writeQueueDepth();

    s.acceptedEager = st.acceptedEager.value();
    s.completedEagerWrites = st.completedEagerWrites.value();
    s.queuedEagerWrites = ctrl.eagerQueueDepth();

    s.issuedWriteAttempts = st.totalWriteIssues();
    s.cancelledWrites = st.cancelledWrites.value();
    s.retriedWrites = st.retriedWrites.value();
    s.pausedWrites = st.pausedWrites.value();
    s.resumedWrites = st.resumedWrites.value();

    countInFlightWrites(ctrl, &s.inFlightDemandWrites,
                        &s.inFlightEagerWrites, &s.banksPausedNow);
    return s;
}

void
RequestConservationChecker::evaluate(const Snapshot &s,
                                     ViolationSink &sink)
{
    auto conservation = [&sink](const char *what, std::uint64_t admitted,
                                std::uint64_t accounted) {
        if (admitted == accounted)
            return;
        const char *direction = accounted < admitted
                                    ? "lost"
                                    : "double-completed (or spuriously "
                                      "created)";
        sink.add(logFormat(
            "%s conservation broken: %llu admitted but %llu accounted "
            "for — %llu request(s) %s",
            what, static_cast<unsigned long long>(admitted),
            static_cast<unsigned long long>(accounted),
            static_cast<unsigned long long>(
                admitted > accounted ? admitted - accounted
                                     : accounted - admitted),
            direction));
    };

    conservation("demand read", s.demandReads,
                 s.forwardedReads + s.issuedReads + s.queuedReads);
    conservation("demand write", s.acceptedWritebacks,
                 s.completedDemandWrites + s.queuedDemandWrites +
                     s.inFlightDemandWrites);
    conservation("eager write", s.acceptedEager,
                 s.completedEagerWrites + s.queuedEagerWrites +
                     s.inFlightEagerWrites);
    // A retried attempt finished its pulse but failed verification,
    // so it is neither completed nor cancelled nor in flight — it sits
    // back in its queue awaiting reissue.
    conservation("write attempt", s.issuedWriteAttempts,
                 s.completedDemandWrites + s.completedEagerWrites +
                     s.cancelledWrites + s.retriedWrites +
                     s.inFlightDemandWrites + s.inFlightEagerWrites);

    if (s.resumedWrites > s.pausedWrites) {
        sink.add(logFormat("more resumes (%llu) than pauses (%llu)",
                           static_cast<unsigned long long>(
                               s.resumedWrites),
                           static_cast<unsigned long long>(
                               s.pausedWrites)));
    } else if (s.pausedWrites - s.resumedWrites != s.banksPausedNow) {
        sink.add(logFormat(
            "pause/resume pairing broken: %llu pauses - %llu resumes "
            "leaves %llu outstanding, but %llu bank(s) hold a paused "
            "write",
            static_cast<unsigned long long>(s.pausedWrites),
            static_cast<unsigned long long>(s.resumedWrites),
            static_cast<unsigned long long>(s.pausedWrites -
                                            s.resumedWrites),
            static_cast<unsigned long long>(s.banksPausedNow)));
    }
}

std::string
RequestConservationChecker::name() const
{
    // mlint: allow(value-escape): checker-name formatting.
    return logFormat("request-conservation/ch%u", _channel.value());
}

void
RequestConservationChecker::check(Tick, ViolationSink &sink)
{
    evaluate(capture(_ctrl), sink);
}

// --- BankStateChecker ----------------------------------------------

BankStateChecker::Snapshot
BankStateChecker::capture(const MemoryController &ctrl)
{
    Snapshot s;
    s.banks.reserve(ctrl.numBanks());
    for (unsigned b = 0; b < ctrl.numBanks(); ++b) {
        const Bank &bank = ctrl.bank(BankId(b));
        BankSnapshot bs;
        bs.writing = bank.writeInFlight();
        bs.paused = bank.hasPausedWrite();
        bs.busyUntil = bank.busyUntil();
        bs.trackerBusyUntil = bank.busyTracker().busyUntil();
        bs.trackerBusyTicks = bank.busyTracker().busyTicks();
        bs.remainingPulse = bank.remainingPulse();
        bs.writePulse = bank.writePulse();
        s.banks.push_back(bs);
    }
    return s;
}

void
BankStateChecker::evaluate(const Snapshot &s, Tick now,
                           ViolationSink &sink)
{
    for (std::size_t b = 0; b < s.banks.size(); ++b) {
        const BankSnapshot &bs = s.banks[b];
        if (bs.writing && bs.paused) {
            sink.add(logFormat(
                "bank %zu is simultaneously writing and paused", b));
        }
        if (bs.writing && bs.busyUntil < now) {
            sink.add(logFormat(
                "bank %zu write completion lost: pulse ended at tick "
                "%llu, now %llu, but the write is still in flight",
                b, static_cast<unsigned long long>(bs.busyUntil),
                static_cast<unsigned long long>(now)));
        }
        if (bs.paused &&
            (bs.remainingPulse == 0 ||
             bs.remainingPulse > bs.writePulse)) {
            sink.add(logFormat(
                "bank %zu paused write remainder is illegal: %llu of "
                "a %llu-tick pulse remains",
                b,
                static_cast<unsigned long long>(bs.remainingPulse),
                static_cast<unsigned long long>(bs.writePulse)));
        }
        if (bs.trackerBusyUntil > bs.busyUntil) {
            sink.add(logFormat(
                "bank %zu busy accounting overlaps: tracked busy "
                "until %llu but the device frees at %llu",
                b,
                static_cast<unsigned long long>(bs.trackerBusyUntil),
                static_cast<unsigned long long>(bs.busyUntil)));
        }
        if (bs.trackerBusyTicks > bs.trackerBusyUntil) {
            sink.add(logFormat(
                "bank %zu busy time (%llu) exceeds the busy horizon "
                "(%llu): busy windows must have overlapped",
                b,
                static_cast<unsigned long long>(bs.trackerBusyTicks),
                static_cast<unsigned long long>(bs.trackerBusyUntil)));
        }
    }
}

std::string
BankStateChecker::name() const
{
    // mlint: allow(value-escape): checker-name formatting.
    return logFormat("bank-state/ch%u", _channel.value());
}

void
BankStateChecker::check(Tick now, ViolationSink &sink)
{
    evaluate(capture(_ctrl), now, sink);
}

// --- WearConservationChecker ---------------------------------------

WearConservationChecker::Snapshot
WearConservationChecker::capture(const MemoryController &ctrl)
{
    const WearTracker &wear = ctrl.wearTracker();
    Snapshot s;
    for (unsigned b = 0; b < ctrl.numBanks(); ++b) {
        const BankWearStats &bw = wear.bankStats(BankId(b));
        s.trackerNormalWrites += bw.normalWrites;
        s.trackerSlowWrites += bw.slowWrites;
        s.trackerCancelledWrites += bw.cancelledWrites;
        s.trackerMaintenanceWrites += bw.maintenanceWrites;
        s.minBankWearUnits = b == 0 ? bw.wearUnits
                                    : std::min(s.minBankWearUnits,
                                               bw.wearUnits);
        s.maxBankWearUnits = std::max(s.maxBankWearUnits, bw.wearUnits);
        s.totalWearUnits += bw.wearUnits;
    }

    const MemControllerStats &st = ctrl.stats();
    s.completedWrites = completedWrites(st);
    s.cancelledWrites = st.cancelledWrites.value();
    s.retriedWrites = st.retriedWrites.value();
    s.maintenanceWrites = st.maintenanceWrites.value();
    s.issuedWriteAttempts = st.totalWriteIssues();

    std::uint64_t demand = 0, eager = 0, paused = 0;
    countInFlightWrites(ctrl, &demand, &eager, &paused);
    s.inFlightWrites = demand + eager;
    return s;
}

void
WearConservationChecker::evaluate(const Snapshot &s,
                                  ViolationSink &sink)
{
    // Retried attempts wore the cell even though their request did
    // not complete, so they count on the tracker side.
    std::uint64_t tracker_writes =
        s.trackerNormalWrites + s.trackerSlowWrites;
    std::uint64_t finished_pulses = s.completedWrites + s.retriedWrites;
    if (tracker_writes != finished_pulses) {
        sink.add(logFormat(
            "wear tracker write count (%llu normal + %llu slow) "
            "disagrees with the %llu pulses the controller finished "
            "(%llu completed + %llu retried)",
            static_cast<unsigned long long>(s.trackerNormalWrites),
            static_cast<unsigned long long>(s.trackerSlowWrites),
            static_cast<unsigned long long>(finished_pulses),
            static_cast<unsigned long long>(s.completedWrites),
            static_cast<unsigned long long>(s.retriedWrites)));
    }
    if (s.trackerCancelledWrites != s.cancelledWrites) {
        sink.add(logFormat(
            "wear tracker saw %llu cancelled writes but the "
            "controller cancelled %llu",
            static_cast<unsigned long long>(s.trackerCancelledWrites),
            static_cast<unsigned long long>(s.cancelledWrites)));
    }
    // Leveler maintenance copies are charged as real device traffic;
    // the tracker must see exactly the copies the controller issued.
    if (s.trackerMaintenanceWrites != s.maintenanceWrites) {
        sink.add(logFormat(
            "wear tracker saw %llu maintenance writes but the "
            "controller charged %llu",
            static_cast<unsigned long long>(
                s.trackerMaintenanceWrites),
            static_cast<unsigned long long>(s.maintenanceWrites)));
    }
    std::uint64_t accounted = s.completedWrites + s.cancelledWrites +
                              s.retriedWrites + s.inFlightWrites;
    if (s.issuedWriteAttempts != accounted) {
        sink.add(logFormat(
            "write attempts leak: %llu issued but %llu accounted for "
            "(%llu completed + %llu cancelled + %llu retried + %llu "
            "in flight)",
            static_cast<unsigned long long>(s.issuedWriteAttempts),
            static_cast<unsigned long long>(accounted),
            static_cast<unsigned long long>(s.completedWrites),
            static_cast<unsigned long long>(s.cancelledWrites),
            static_cast<unsigned long long>(s.retriedWrites),
            static_cast<unsigned long long>(s.inFlightWrites)));
    }
    if (s.minBankWearUnits < 0.0) {
        sink.add(logFormat("negative bank wear: %g wear units",
                           s.minBankWearUnits));
    }
    if (!approxLessOrEqual(s.maxBankWearUnits, s.totalWearUnits)) {
        sink.add(logFormat(
            "most-worn bank (%g units) exceeds the total over all "
            "banks (%g units)",
            s.maxBankWearUnits, s.totalWearUnits));
    }
}

std::string
WearConservationChecker::name() const
{
    // mlint: allow(value-escape): checker-name formatting.
    return logFormat("wear-conservation/ch%u", _channel.value());
}

void
WearConservationChecker::check(Tick, ViolationSink &sink)
{
    evaluate(capture(_ctrl), sink);
}

// --- EnergyCrossChecker --------------------------------------------

EnergyCrossChecker::Snapshot
EnergyCrossChecker::capture(const MemoryController &ctrl)
{
    const EnergyStats &e = ctrl.energyModel().stats();
    const MemControllerStats &st = ctrl.stats();
    Snapshot s;
    s.energyNormalWrites = e.normalWrites;
    s.energySlowWrites = e.slowWrites;
    s.energyCancelledWrites = e.cancelledWrites;
    s.energyBufferReads = e.bufferReads;
    s.energyRowHitReads = e.rowHitReads;
    // mlint: allow(value-escape): snapshot magnitudes feed the
    // relative-tolerance comparison below, which is unit-free.
    s.readPj = e.readPj.value();
    // mlint: allow(value-escape): see above.
    s.writePj = e.writePj.value();
    s.completedWrites = completedWrites(st);
    s.cancelledWrites = st.cancelledWrites.value();
    s.retriedWrites = st.retriedWrites.value();
    s.maintenanceWrites = st.maintenanceWrites.value();
    s.issuedReads = st.issuedReads.value();
    s.rowHitReads = st.rowHitReads.value();
    s.rowMissReads = st.rowMissReads.value();
    return s;
}

void
EnergyCrossChecker::evaluate(const Snapshot &s, ViolationSink &sink)
{
    // Retried attempts drew write energy even though their request
    // did not complete; leveler maintenance copies are charged as
    // normal-speed writes with no request at all.
    std::uint64_t energy_writes =
        s.energyNormalWrites + s.energySlowWrites;
    std::uint64_t finished_pulses =
        s.completedWrites + s.retriedWrites + s.maintenanceWrites;
    if (energy_writes != finished_pulses) {
        sink.add(logFormat(
            "energy model charged %llu completed writes but the "
            "controller finished %llu pulses (%llu completed + %llu "
            "retried + %llu maintenance)",
            static_cast<unsigned long long>(energy_writes),
            static_cast<unsigned long long>(finished_pulses),
            static_cast<unsigned long long>(s.completedWrites),
            static_cast<unsigned long long>(s.retriedWrites),
            static_cast<unsigned long long>(s.maintenanceWrites)));
    }
    if (s.energyCancelledWrites != s.cancelledWrites) {
        sink.add(logFormat(
            "energy model charged %llu cancelled writes but the "
            "controller cancelled %llu",
            static_cast<unsigned long long>(s.energyCancelledWrites),
            static_cast<unsigned long long>(s.cancelledWrites)));
    }
    std::uint64_t energy_reads =
        s.energyBufferReads + s.energyRowHitReads;
    if (energy_reads != s.issuedReads) {
        sink.add(logFormat(
            "energy model charged %llu reads but the controller "
            "issued %llu",
            static_cast<unsigned long long>(energy_reads),
            static_cast<unsigned long long>(s.issuedReads)));
    }
    if (s.energyRowHitReads != s.rowHitReads ||
        s.rowHitReads + s.rowMissReads != s.issuedReads) {
        sink.add(logFormat(
            "row-buffer accounting skew: stats %llu hits + %llu "
            "misses of %llu issued; energy model saw %llu hits",
            static_cast<unsigned long long>(s.rowHitReads),
            static_cast<unsigned long long>(s.rowMissReads),
            static_cast<unsigned long long>(s.issuedReads),
            static_cast<unsigned long long>(s.energyRowHitReads)));
    }
    if (s.readPj < 0.0 || s.writePj < 0.0) {
        sink.add(logFormat(
            "negative energy totals: read %g pJ, write %g pJ",
            s.readPj, s.writePj));
    }
}

std::string
EnergyCrossChecker::name() const
{
    // mlint: allow(value-escape): checker-name formatting.
    return logFormat("energy-cross-check/ch%u", _channel.value());
}

void
EnergyCrossChecker::check(Tick, ViolationSink &sink)
{
    evaluate(capture(_ctrl), sink);
}

// --- WearQuotaChecker ----------------------------------------------

WearQuotaChecker::Snapshot
WearQuotaChecker::capture(const WearQuota &quota, unsigned numBanks)
{
    Snapshot s;
    s.wearBoundBank = quota.wearBoundBank();
    s.numPeriods = quota.numPeriods();
    s.banks.reserve(numBanks);
    for (unsigned b = 0; b < numBanks; ++b) {
        BankSnapshot bs;
        bs.wear = quota.bankWear(BankId(b));
        bs.exceed = quota.exceedQuota(BankId(b));
        bs.slowOnlyPeriods = quota.slowOnlyPeriods(BankId(b));
        s.banks.push_back(bs);
    }
    return s;
}

void
WearQuotaChecker::evaluate(const Snapshot &s, ViolationSink &sink)
{
    if (s.wearBoundBank <= 0.0) {
        sink.add(logFormat(
            "per-period wear budget must be positive, got %g",
            s.wearBoundBank));
    }
    for (std::size_t b = 0; b < s.banks.size(); ++b) {
        const BankSnapshot &bs = s.banks[b];
        if (bs.wear < 0.0) {
            sink.add(logFormat("bank %zu recorded negative wear (%g)",
                               b, bs.wear));
        }
        if (bs.slowOnlyPeriods > s.numPeriods) {
            sink.add(logFormat(
                "bank %zu was slow-only for %llu of %llu periods",
                b,
                static_cast<unsigned long long>(bs.slowOnlyPeriods),
                static_cast<unsigned long long>(s.numPeriods)));
        }
        // The latched ExceedQuota was wear - bound * numPeriods at
        // the last boundary; wear only grows within a period, so the
        // current wear must still cover it.
        double implied = bs.exceed + s.wearBoundBank *
                                         static_cast<double>(
                                             s.numPeriods);
        if (!approxLessOrEqual(implied, bs.wear)) {
            sink.add(logFormat(
                "bank %zu ExceedQuota (%g) is stale or corrupt: with "
                "budget %g over %llu periods it implies at least %g "
                "wear units, but only %g were recorded",
                b, bs.exceed, s.wearBoundBank,
                static_cast<unsigned long long>(s.numPeriods), implied,
                bs.wear));
        }
    }
}

std::string
WearQuotaChecker::name() const
{
    // mlint: allow(value-escape): checker-name formatting.
    return logFormat("wear-quota/ch%u", _channel.value());
}

void
WearQuotaChecker::check(Tick, ViolationSink &sink)
{
    const WearQuota *quota = _ctrl.wearQuota();
    if (quota == nullptr)
        return;
    evaluate(capture(*quota, _ctrl.numBanks()), sink);
}

// --- FaultChecker --------------------------------------------------

FaultChecker::Snapshot
FaultChecker::capture(const MemoryController &ctrl)
{
    const FaultModel *fm = ctrl.faultModel();
    panic_if(fm == nullptr,
             "fault checker installed without a fault model");
    const FaultStats &fs = fm->stats();
    Snapshot s;
    s.writesToRetiredLines = fm->writesToRetiredLines();
    s.maxRepairsOnLine = fm->maxRepairsOnLine();
    s.remapEntries = fm->remapEntries();
    s.delegateRetiredLines = fm->delegateRetiredLines();
    s.remapValid = fm->remapTableValid();
    s.retiredLines = fs.retiredLines;
    s.deadLines = fs.deadLines;
    s.repairsUsed = fs.repairsUsed;
    s.permanentFaults = fs.permanentFaults;
    s.maxSparesUsed = fm->maxSparesUsed();
    s.retriesRequested = fs.retriesRequested;
    s.firstFaultTick = fs.firstFaultTick;
    s.firstUncorrectableTick = fs.firstUncorrectableTick;
    s.repairEntriesPerLine = fm->config().repairEntriesPerLine;
    s.spareLinesPerBank = fm->config().spareLinesPerBank;
    s.ctrlRetriedWrites = ctrl.stats().retriedWrites.value();
    return s;
}

void
FaultChecker::evaluate(const Snapshot &s, ViolationSink &sink)
{
    if (s.writesToRetiredLines != 0) {
        sink.add(logFormat(
            "%llu write(s) issued to retired lines — the retirement "
            "indirection table was bypassed",
            static_cast<unsigned long long>(s.writesToRetiredLines)));
    }
    if (s.maxRepairsOnLine > s.repairEntriesPerLine) {
        sink.add(logFormat(
            "repair budget overdrawn: a line consumed %llu ECP "
            "entries of %llu budgeted",
            static_cast<unsigned long long>(s.maxRepairsOnLine),
            static_cast<unsigned long long>(s.repairEntriesPerLine)));
    }
    if (!s.remapValid) {
        sink.add("retirement remap table is not a bijection onto "
                 "in-range spare lines of retired sources");
    }
    // A retirement consumes either a remap-table entry or (under a
    // unified-remap leveler) a delegate rerouting — exactly one.
    if (s.remapEntries + s.delegateRetiredLines != s.retiredLines) {
        sink.add(logFormat(
            "remap table has %llu entries + %llu delegate "
            "retirements but %llu lines are retired",
            static_cast<unsigned long long>(s.remapEntries),
            static_cast<unsigned long long>(s.delegateRetiredLines),
            static_cast<unsigned long long>(s.retiredLines)));
    }
    if (s.maxSparesUsed > s.spareLinesPerBank) {
        sink.add(logFormat(
            "spare pool overdrawn: a bank consumed %llu spares of "
            "%llu available",
            static_cast<unsigned long long>(s.maxSparesUsed),
            static_cast<unsigned long long>(s.spareLinesPerBank)));
    }
    if (s.permanentFaults !=
        s.repairsUsed + s.retiredLines + s.deadLines) {
        sink.add(logFormat(
            "fault escalation leak: %llu permanent faults but %llu "
            "repairs + %llu retirements + %llu dead lines",
            static_cast<unsigned long long>(s.permanentFaults),
            static_cast<unsigned long long>(s.repairsUsed),
            static_cast<unsigned long long>(s.retiredLines),
            static_cast<unsigned long long>(s.deadLines)));
    }
    if ((s.permanentFaults != 0) != (s.firstFaultTick != 0)) {
        sink.add(logFormat(
            "first-fault tick bookkeeping skew: %llu permanent "
            "faults but first-fault tick is %llu",
            static_cast<unsigned long long>(s.permanentFaults),
            static_cast<unsigned long long>(s.firstFaultTick)));
    }
    if ((s.deadLines != 0) != (s.firstUncorrectableTick != 0)) {
        sink.add(logFormat(
            "first-uncorrectable tick bookkeeping skew: %llu dead "
            "lines but first-uncorrectable tick is %llu",
            static_cast<unsigned long long>(s.deadLines),
            static_cast<unsigned long long>(
                s.firstUncorrectableTick)));
    }
    if (s.firstFaultTick != 0 && s.firstUncorrectableTick != 0 &&
        s.firstUncorrectableTick < s.firstFaultTick) {
        sink.add(logFormat(
            "first uncorrectable error (tick %llu) precedes the "
            "first fault (tick %llu)",
            static_cast<unsigned long long>(s.firstUncorrectableTick),
            static_cast<unsigned long long>(s.firstFaultTick)));
    }
    if (s.ctrlRetriedWrites != s.retriesRequested) {
        sink.add(logFormat(
            "retry accounting skew: the fault model requested %llu "
            "retries but the controller reissued %llu",
            static_cast<unsigned long long>(s.retriesRequested),
            static_cast<unsigned long long>(s.ctrlRetriedWrites)));
    }
}

std::string
FaultChecker::name() const
{
    // mlint: allow(value-escape): checker-name formatting.
    return logFormat("fault/ch%u", _channel.value());
}

void
FaultChecker::check(Tick, ViolationSink &sink)
{
    if (_ctrl.faultModel() == nullptr)
        return;
    evaluate(capture(_ctrl), sink);
}

} // namespace mellowsim
