/**
 * @file
 * Tests of the runtime invariant-checking layer (src/check/).
 *
 * Every checker gets (a) a passing scenario captured from a healthy
 * live simulation and (b) an injected violation — a hand-built
 * snapshot encoding a corruption such as a double-completed request —
 * that the checker must detect and describe with actionable context.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/check_config.hh"
#include "check/checkers.hh"
#include "check/install.hh"
#include "check/registry.hh"
#include "sim/alloc_counter.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "system/system.hh"

using namespace mellowsim;

namespace
{

/**
 * Run a small simulation and hand back the live System. lbm at one
 * million instructions is the shortest run that exercises demand
 * writebacks, eager writes and cancellations together.
 */
std::unique_ptr<System>
runSmallSystem(const WritePolicyConfig &policy)
{
    SystemConfig cfg;
    cfg.workloadName = "lbm";
    cfg.policy = policy;
    cfg.instructions = 1'000'000;
    cfg.warmupInstructions = 250'000;
    cfg.checks.enabled = true;
    auto sys = std::make_unique<System>(cfg);
    sys->run();
    return sys;
}

/** Evaluate-only helper: collect violations from one evaluation. */
template <typename Fn>
std::vector<Violation>
collect(const std::string &checker, Fn &&evaluate)
{
    std::vector<Violation> out;
    ViolationSink sink(checker, 0, out);
    evaluate(sink);
    return out;
}

/** A checker that always reports one violation (for registry tests). */
class AlwaysFail : public InvariantChecker
{
  public:
    std::string name() const override { return "always-fail"; }

    void
    check(Tick, ViolationSink &sink) override
    {
        sink.add("intentionally injected violation");
    }
};

class QuietScope
{
  public:
    QuietScope() : _was(Logger::quiet()) { Logger::setQuiet(true); }
    ~QuietScope() { Logger::setQuiet(_was); }

  private:
    bool _was;
};

} // namespace

// --- EventQueueChecker ---------------------------------------------

TEST(EventQueueChecker, PassesOnHealthyQueue)
{
    EventQueue eq;
    EventQueue::PinnedEvent pinned(eq, [] {});
    eq.schedule(100, [] {});
    eq.schedule(200, [] {});
    eq.step();
    // An armed pinned event is pending but owns no heap entry.
    pinned.schedule(150);
    ASSERT_EQ(eq.numPending(), 2u);
    ASSERT_EQ(eq.rawHeapSize(), 1u);

    auto v = collect("event-queue", [&](ViolationSink &sink) {
        EventQueueChecker::evaluate(EventQueueChecker::capture(eq), 0,
                                    sink);
    });
    EXPECT_TRUE(v.empty());
}

TEST(EventQueueChecker, DetectsBookkeepingSkew)
{
    // Three pending events, but only one heap entry and one armed
    // pinned event to hold them.
    EventQueueChecker::Snapshot s;
    s.curTick = 10;
    s.minPendingTick = 20;
    s.rawHeapSize = 1;
    s.armedPinned = 1;
    s.numPending = 3;
    auto v = collect("event-queue", [&](ViolationSink &sink) {
        EventQueueChecker::evaluate(s, 0, sink);
    });
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].message.find("event bookkeeping skew"),
              std::string::npos);

    // A second armed pinned event accounts for the third.
    s.armedPinned = 2;
    v = collect("event-queue", [&](ViolationSink &sink) {
        EventQueueChecker::evaluate(s, 0, sink);
    });
    EXPECT_TRUE(v.empty());
}

TEST(EventQueueChecker, DetectsTimeRunningBackwards)
{
    EventQueueChecker::Snapshot s;
    s.curTick = 50;
    s.minPendingTick = MaxTick;
    auto v = collect("event-queue", [&](ViolationSink &sink) {
        EventQueueChecker::evaluate(s, /*lastAuditTick=*/100, sink);
    });
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].message.find("time ran backwards"),
              std::string::npos);
}

TEST(EventQueueChecker, DetectsPendingEventInThePast)
{
    EventQueueChecker::Snapshot s;
    s.curTick = 500;
    s.minPendingTick = 400;
    s.rawHeapSize = 1;
    s.numPending = 1;
    auto v = collect("event-queue", [&](ViolationSink &sink) {
        EventQueueChecker::evaluate(s, 0, sink);
    });
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].message.find("pending event in the past"),
              std::string::npos);
    // Actionable context: both ticks appear in the message.
    EXPECT_NE(v[0].message.find("400"), std::string::npos);
    EXPECT_NE(v[0].message.find("500"), std::string::npos);
}

// --- RequestConservationChecker ------------------------------------

TEST(RequestConservationChecker, PassesOnLiveSystem)
{
    auto sys = runSmallSystem(policies::beMellow().withSC());
    auto snap = RequestConservationChecker::capture(sys->controller());
    EXPECT_GT(snap.demandReads, 0u);
    EXPECT_GT(snap.acceptedWritebacks, 0u);

    auto v = collect("request-conservation", [&](ViolationSink &sink) {
        RequestConservationChecker::evaluate(snap, sink);
    });
    EXPECT_TRUE(v.empty());
}

TEST(RequestConservationChecker, DetectsDoubleCompletedWrite)
{
    // A healthy book (95 completed + 3 queued + 2 in flight from 97
    // issued attempts), then one write completes a second time.
    RequestConservationChecker::Snapshot s;
    s.acceptedWritebacks = 100;
    s.completedDemandWrites = 95 + 1; // the double completion
    s.queuedDemandWrites = 3;
    s.inFlightDemandWrites = 2;
    s.issuedWriteAttempts = 97;
    auto v = collect("request-conservation", [&](ViolationSink &sink) {
        RequestConservationChecker::evaluate(s, sink);
    });
    ASSERT_EQ(v.size(), 2u); // per-type and attempt books both break
    EXPECT_NE(v[0].message.find("demand write conservation broken"),
              std::string::npos);
    EXPECT_NE(v[0].message.find("double-completed"), std::string::npos);
    EXPECT_NE(v[0].message.find("100"), std::string::npos);
    EXPECT_NE(v[0].message.find("101"), std::string::npos);
}

TEST(RequestConservationChecker, DetectsLostRead)
{
    RequestConservationChecker::Snapshot s;
    s.demandReads = 50;
    s.forwardedReads = 10;
    s.issuedReads = 30;
    s.queuedReads = 9; // one read vanished
    auto v = collect("request-conservation", [&](ViolationSink &sink) {
        RequestConservationChecker::evaluate(s, sink);
    });
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].message.find("demand read conservation broken"),
              std::string::npos);
    EXPECT_NE(v[0].message.find("lost"), std::string::npos);
}

TEST(RequestConservationChecker, DetectsUnpairedPause)
{
    RequestConservationChecker::Snapshot s;
    s.pausedWrites = 5;
    s.resumedWrites = 3;
    s.banksPausedNow = 1; // should be 2
    auto v = collect("request-conservation", [&](ViolationSink &sink) {
        RequestConservationChecker::evaluate(s, sink);
    });
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].message.find("pause/resume pairing broken"),
              std::string::npos);
}

// --- BankStateChecker ----------------------------------------------

TEST(BankStateChecker, PassesOnLiveSystem)
{
    auto sys = runSmallSystem(policies::norm());
    auto snap = BankStateChecker::capture(sys->controller());
    EXPECT_FALSE(snap.banks.empty());

    auto v = collect("bank-state", [&](ViolationSink &sink) {
        BankStateChecker::evaluate(snap, sys->eventQueue().curTick(),
                                   sink);
    });
    EXPECT_TRUE(v.empty());
}

TEST(BankStateChecker, DetectsWritingWhilePaused)
{
    BankStateChecker::Snapshot s;
    BankStateChecker::BankSnapshot b;
    b.writing = true;
    b.paused = true;
    b.busyUntil = 1000;
    b.remainingPulse = 10;
    b.writePulse = 100;
    s.banks.push_back(b);
    auto v = collect("bank-state", [&](ViolationSink &sink) {
        BankStateChecker::evaluate(s, 500, sink);
    });
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].message.find("simultaneously writing and paused"),
              std::string::npos);
}

TEST(BankStateChecker, DetectsLostWriteCompletion)
{
    BankStateChecker::Snapshot s;
    BankStateChecker::BankSnapshot b;
    b.writing = true;
    b.busyUntil = 1000; // pulse ended...
    s.banks.push_back(b);
    auto v = collect("bank-state", [&](ViolationSink &sink) {
        BankStateChecker::evaluate(s, /*now=*/2000, sink); // ...long ago
    });
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].message.find("write completion lost"),
              std::string::npos);
}

TEST(BankStateChecker, DetectsOverlappingBusyAccounting)
{
    BankStateChecker::Snapshot s;
    BankStateChecker::BankSnapshot b;
    b.busyUntil = 100;
    b.trackerBusyUntil = 100;
    b.trackerBusyTicks = 150; // busier than the horizon allows
    s.banks.push_back(b);
    auto v = collect("bank-state", [&](ViolationSink &sink) {
        BankStateChecker::evaluate(s, 100, sink);
    });
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].message.find("busy windows must have overlapped"),
              std::string::npos);
}

// --- WearConservationChecker ---------------------------------------

TEST(WearConservationChecker, PassesOnLiveSystem)
{
    auto sys = runSmallSystem(policies::beMellow().withSC());
    auto snap = WearConservationChecker::capture(sys->controller());
    EXPECT_GT(snap.completedWrites, 0u);

    auto v = collect("wear-conservation", [&](ViolationSink &sink) {
        WearConservationChecker::evaluate(snap, sink);
    });
    EXPECT_TRUE(v.empty());
}

TEST(WearConservationChecker, DetectsMissedWearRecord)
{
    WearConservationChecker::Snapshot s;
    s.trackerNormalWrites = 40;
    s.trackerSlowWrites = 9; // one slow write never reached the tracker
    s.completedWrites = 50;
    s.issuedWriteAttempts = 50;
    auto v = collect("wear-conservation", [&](ViolationSink &sink) {
        WearConservationChecker::evaluate(s, sink);
    });
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].message.find("wear tracker write count"),
              std::string::npos);
}

TEST(WearConservationChecker, DetectsNegativeWearAndAttemptLeak)
{
    WearConservationChecker::Snapshot s;
    s.minBankWearUnits = -0.25;
    s.issuedWriteAttempts = 10;
    s.completedWrites = 4;
    s.cancelledWrites = 3;
    s.inFlightWrites = 2; // 9 accounted, one attempt leaked
    s.trackerNormalWrites = 4;
    s.trackerCancelledWrites = 3;
    auto v = collect("wear-conservation", [&](ViolationSink &sink) {
        WearConservationChecker::evaluate(s, sink);
    });
    ASSERT_EQ(v.size(), 2u);
    EXPECT_NE(v[0].message.find("write attempts leak"),
              std::string::npos);
    EXPECT_NE(v[1].message.find("negative bank wear"),
              std::string::npos);
}

// --- EnergyCrossChecker --------------------------------------------

TEST(EnergyCrossChecker, PassesOnLiveSystem)
{
    auto sys = runSmallSystem(policies::beMellow().withSC());
    auto snap = EnergyCrossChecker::capture(sys->controller());
    EXPECT_GT(snap.completedWrites, 0u);

    auto v = collect("energy-cross-check", [&](ViolationSink &sink) {
        EnergyCrossChecker::evaluate(snap, sink);
    });
    EXPECT_TRUE(v.empty());
}

TEST(EnergyCrossChecker, DetectsUnchargedWrite)
{
    EnergyCrossChecker::Snapshot s;
    s.energyNormalWrites = 7;
    s.energySlowWrites = 2;
    s.completedWrites = 10; // one write was never charged
    auto v = collect("energy-cross-check", [&](ViolationSink &sink) {
        EnergyCrossChecker::evaluate(s, sink);
    });
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].message.find("energy model charged 9"),
              std::string::npos);
}

TEST(EnergyCrossChecker, DetectsRowBufferSkew)
{
    EnergyCrossChecker::Snapshot s;
    s.issuedReads = 10;
    s.rowHitReads = 6;
    s.rowMissReads = 4;
    s.energyBufferReads = 4;
    s.energyRowHitReads = 5; // energy model missed one row hit
    auto v = collect("energy-cross-check", [&](ViolationSink &sink) {
        EnergyCrossChecker::evaluate(s, sink);
    });
    ASSERT_EQ(v.size(), 2u); // read total and hit split both off
    EXPECT_NE(v[1].message.find("row-buffer accounting skew"),
              std::string::npos);
}

// --- WearQuotaChecker ----------------------------------------------

TEST(WearQuotaChecker, PassesOnLiveSystem)
{
    auto sys = runSmallSystem(policies::beMellow().withSC().withWQ());
    const WearQuota *quota = sys->controller().wearQuota();
    ASSERT_NE(quota, nullptr);

    auto snap = WearQuotaChecker::capture(
        *quota, sys->controller().numBanks());
    auto v = collect("wear-quota", [&](ViolationSink &sink) {
        WearQuotaChecker::evaluate(snap, sink);
    });
    EXPECT_TRUE(v.empty());
}

TEST(WearQuotaChecker, DetectsCorruptBudgetAndWear)
{
    WearQuotaChecker::Snapshot s;
    s.wearBoundBank = 0.0; // budget lost
    s.numPeriods = 4;
    WearQuotaChecker::BankSnapshot b;
    b.wear = -1.0; // negative wear
    b.slowOnlyPeriods = 9; // more than periods elapsed
    s.banks.push_back(b);
    auto v = collect("wear-quota", [&](ViolationSink &sink) {
        WearQuotaChecker::evaluate(s, sink);
    });
    // Budget, negative wear, period count, and the negative wear also
    // undercuts the latched ExceedQuota.
    ASSERT_EQ(v.size(), 4u);
}

TEST(WearQuotaChecker, DetectsStaleExceedQuota)
{
    WearQuotaChecker::Snapshot s;
    s.wearBoundBank = 1.0;
    s.numPeriods = 3;
    WearQuotaChecker::BankSnapshot b;
    b.wear = 2.0;
    b.exceed = 1.5; // implies >= 4.5 wear units; only 2 recorded
    s.banks.push_back(b);
    auto v = collect("wear-quota", [&](ViolationSink &sink) {
        WearQuotaChecker::evaluate(s, sink);
    });
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].message.find("stale or corrupt"),
              std::string::npos);
}

// --- FaultChecker --------------------------------------------------

TEST(FaultChecker, PassesOnConsistentSnapshot)
{
    FaultChecker::Snapshot s;
    s.repairEntriesPerLine = 2;
    s.spareLinesPerBank = 4;
    s.maxRepairsOnLine = 2;
    s.repairsUsed = 5;
    s.retiredLines = 3;
    s.remapEntries = 3;
    s.deadLines = 1;
    s.permanentFaults = 9; // 5 repairs + 3 retirements + 1 dead
    s.maxSparesUsed = 3;
    s.firstFaultTick = 100;
    s.firstUncorrectableTick = 900;
    s.retriesRequested = 7;
    s.ctrlRetriedWrites = 7;
    auto v = collect("fault", [&](ViolationSink &sink) {
        FaultChecker::evaluate(s, sink);
    });
    EXPECT_TRUE(v.empty());
}

TEST(FaultChecker, DetectsWriteReachingRetiredLine)
{
    FaultChecker::Snapshot s;
    s.writesToRetiredLines = 2;
    auto v = collect("fault", [&](ViolationSink &sink) {
        FaultChecker::evaluate(s, sink);
    });
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].message.find("retired"), std::string::npos);
}

TEST(FaultChecker, DetectsCorruptRemapTable)
{
    FaultChecker::Snapshot s;
    s.retiredLines = 2;
    s.remapEntries = 2;
    s.permanentFaults = 2;
    s.firstFaultTick = 50;
    s.remapValid = false;
    auto v = collect("fault", [&](ViolationSink &sink) {
        FaultChecker::evaluate(s, sink);
    });
    ASSERT_EQ(v.size(), 1u);
}

TEST(FaultChecker, DetectsBudgetAndAccountingViolations)
{
    FaultChecker::Snapshot s;
    s.repairEntriesPerLine = 1;
    s.maxRepairsOnLine = 2;  // over the per-line ECP budget
    s.spareLinesPerBank = 2;
    s.maxSparesUsed = 3;     // over the spare pool
    s.repairsUsed = 2;
    s.retiredLines = 1;
    s.remapEntries = 1;
    s.deadLines = 0;
    s.permanentFaults = 4;   // != 2 + 1 + 0
    s.firstFaultTick = 10;
    auto v = collect("fault", [&](ViolationSink &sink) {
        FaultChecker::evaluate(s, sink);
    });
    EXPECT_EQ(v.size(), 3u);
}

TEST(FaultChecker, DetectsInconsistentFirstFaultTimestamps)
{
    FaultChecker::Snapshot s;
    // Faults recorded but no first-fault tick; a dead line stamped
    // before the first fault.
    s.repairsUsed = 1;
    s.permanentFaults = 2;
    s.deadLines = 1;
    s.firstFaultTick = 0;
    s.firstUncorrectableTick = 5;
    auto v = collect("fault", [&](ViolationSink &sink) {
        FaultChecker::evaluate(s, sink);
    });
    EXPECT_FALSE(v.empty());
}

TEST(FaultChecker, DetectsRetryCounterMismatch)
{
    FaultChecker::Snapshot s;
    s.retriesRequested = 3;
    s.ctrlRetriedWrites = 2;
    auto v = collect("fault", [&](ViolationSink &sink) {
        FaultChecker::evaluate(s, sink);
    });
    ASSERT_EQ(v.size(), 1u);
}

TEST(FaultChecker, InstalledOnlyWhenFaultInjectionIsOn)
{
    SystemConfig cfg;
    cfg.workloadName = "lbm";
    cfg.policy = policies::beMellow().withSC().withWQ();
    cfg.instructions = 200'000;
    cfg.warmupInstructions = 50'000;
    cfg.memory.fault.enabled = true;
    System sys(cfg);
    sys.run();
    InvariantRegistry reg;
    installStandardCheckers(reg, sys.eventQueue(), sys.memory());
    // Event queue + 4 per-channel checkers + quota + fault.
    EXPECT_EQ(reg.numCheckers(), 7u);
    EXPECT_EQ(reg.runAudit(sys.eventQueue().curTick()), 0u);
}

// --- InvariantRegistry ---------------------------------------------

TEST(InvariantRegistry, CleanAuditReportsNothing)
{
    EventQueue eq;
    CheckConfig cfg;
    cfg.strict = true;
    InvariantRegistry reg(cfg);
    reg.add(std::make_unique<EventQueueChecker>(eq));
    EXPECT_EQ(reg.runAudit(eq.curTick()), 0u);
    EXPECT_TRUE(reg.violations().empty());
    EXPECT_EQ(reg.audits(), 1u);
}

TEST(InvariantRegistry, NonStrictCountsInjectedViolation)
{
    QuietScope quiet;
    CheckConfig cfg;
    cfg.strict = false;
    InvariantRegistry reg(cfg);
    reg.add(std::make_unique<AlwaysFail>());
    EXPECT_EQ(reg.runAudit(1234), 1u);
    ASSERT_EQ(reg.violations().size(), 1u);
    const Violation &v = reg.violations()[0];
    EXPECT_EQ(v.checker, "always-fail");
    EXPECT_EQ(v.tick, 1234u);
    EXPECT_NE(v.format().find("intentionally injected"),
              std::string::npos);
}

TEST(InvariantRegistry, StrictModePanicsOnInjectedViolation)
{
    QuietScope quiet;
    CheckConfig cfg;
    cfg.strict = true;
    InvariantRegistry reg(cfg);
    reg.add(std::make_unique<AlwaysFail>());
    EXPECT_THROW(reg.runAudit(0), PanicError);
    // The violation was still recorded before escalation.
    EXPECT_EQ(reg.violations().size(), 1u);
}

TEST(InvariantRegistry, PeriodicAuditsFollowTheConfiguredInterval)
{
    QuietScope quiet;
    EventQueue eq;
    CheckConfig cfg;
    cfg.strict = false;
    cfg.interval = 100 * kMicrosecond;
    InvariantRegistry reg(cfg);
    reg.add(std::make_unique<EventQueueChecker>(eq));
    reg.schedulePeriodic(eq);
    eq.run(kMillisecond + 1);
    EXPECT_EQ(reg.audits(), 10u);
    EXPECT_TRUE(reg.violations().empty());
}

TEST(InvariantRegistry, InstallCoversEverySubsystem)
{
    auto sys = runSmallSystem(policies::beMellow().withSC().withWQ());
    InvariantRegistry reg;
    installStandardCheckers(reg, sys->eventQueue(), sys->memory());
    // Event queue + 4 per-channel checkers + the quota checker.
    EXPECT_EQ(reg.numCheckers(), 6u);
    EXPECT_EQ(reg.runAudit(sys->eventQueue().curTick()), 0u);
}

// --- System wiring -------------------------------------------------

TEST(SystemChecks, EnabledRunAuditsPeriodically)
{
    SystemConfig cfg;
    cfg.workloadName = "stream";
    cfg.policy = policies::beMellow().withSC().withWQ();
    cfg.instructions = 200'000;
    cfg.warmupInstructions = 50'000;
    cfg.checks.enabled = true;
    cfg.checks.interval = 50 * kMicrosecond;
    System sys(cfg);
    sys.run();
    ASSERT_NE(sys.invariantChecks(), nullptr);
    // Periodic audits ran and the final audit brought the count up.
    EXPECT_GT(sys.invariantChecks()->audits(), 1u);
    EXPECT_TRUE(sys.invariantChecks()->violations().empty());
}

TEST(SystemChecks, DefaultConfigDoesNotAudit)
{
    SystemConfig cfg;
    cfg.workloadName = "stream";
    cfg.policy = policies::norm();
    cfg.instructions = 200'000;
    cfg.warmupInstructions = 50'000;
    System sys(cfg);
    sys.run();
    EXPECT_EQ(sys.invariantChecks(), nullptr);
}

TEST(SystemChecks, AllocationCounterIsCompiledIn)
{
    const std::uint64_t allocs = alloccounter::allocations();
    const std::uint64_t frees = alloccounter::deallocations();
    // A direct operator call, which the compiler may not elide the
    // way it may elide a new-expression.
    void *p = ::operator new(sizeof(int));
    EXPECT_GT(alloccounter::allocations(), allocs);
    ::operator delete(p);
    EXPECT_GT(alloccounter::deallocations(), frees);
}

TEST(SystemChecks, AllocationCounterIsPerThread)
{
    // The worker waits for the caller's snapshot: std::thread's own
    // start-up allocation is the caller's, and must come before it.
    std::atomic<bool> go{false};
    std::uint64_t workerAllocs = 0;
    std::thread worker([&go, &workerAllocs] {
        while (!go.load())
            std::this_thread::yield();
        const std::uint64_t before = alloccounter::allocations();
        for (int i = 0; i < 1000; ++i)
            ::operator delete(::operator new(sizeof(int)));
        workerAllocs = alloccounter::allocations() - before;
    });
    const std::uint64_t allocs = alloccounter::allocations();
    const std::uint64_t frees = alloccounter::deallocations();
    go.store(true);
    worker.join();
    EXPECT_EQ(workerAllocs, 1000u);
    EXPECT_EQ(alloccounter::allocations(), allocs);
    EXPECT_EQ(alloccounter::deallocations(), frees);
}
