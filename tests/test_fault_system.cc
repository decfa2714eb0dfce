/**
 * @file
 * End-to-end fault-injection tests: the acceptance scenario for the
 * fault-tolerance subsystem.
 *
 * A write-heavy workload thrashing a small memory with near-zero line
 * endurance drives the full escalation chain — repairs, retirements
 * through the indirection table, and eventually uncorrectable errors —
 * and the measured time-to-first-uncorrectable-error must order
 * policies the same way the paper's analytic lifetime does: slow
 * writes (Equation 2, expoFactor 2) buy measurably later failure.
 */

#include <gtest/gtest.h>

#include <vector>

#include "check/checkers.hh"
#include "check/invariant.hh"
#include "fault/fault_model.hh"
#include "system/report.hh"
#include "system/system.hh"
#include "workload/generators.hh"

using namespace mellowsim;
using namespace mellowsim::policies;

namespace
{

/**
 * Write-heavy thrashing workload: a 3 MB random footprint against the
 * 2 MB LLC produces a steady stream of dirty evictions that revisits
 * the same blocks over and over.
 */
WorkloadParams
stressParams()
{
    WorkloadParams p;
    p.name = "fault-stress";
    p.footprintBytes = 3ull * 1024 * 1024;
    p.hotBytes = 256 * 1024;
    p.coldFraction = 1.0;
    p.pattern = AccessPattern::Random;
    p.writeFraction = 0.6;
    p.meanGap = 10.0;
    return p;
}

/**
 * Small memory with a vanishing per-line endurance so faults occur
 * within a few million instructions. The variation sigma stays at its
 * default; expoFactor stays at the paper's 2.0, so a slowFactor-3
 * write inflicts 9x less wear.
 */
SystemConfig
faultConfig(const WritePolicyConfig &policy)
{
    SystemConfig cfg;
    cfg.policy = policy;
    cfg.instructions = 3'000'000;
    cfg.warmupInstructions = 500'000;
    cfg.memory.geometry.capacityBytes = 64ull * 1024 * 1024;
    cfg.memory.fault.enabled = true;
    // Median line dies on its first normal-speed write (wear 2e-7).
    cfg.memory.fault.enduranceScale = 2e-7;
    cfg.memory.fault.repairEntriesPerLine = 1;
    cfg.memory.fault.spareLinesPerBank = 4;
    return cfg;
}

SimReport
runFaultSystem(const WritePolicyConfig &policy)
{
    SystemConfig cfg = faultConfig(policy);
    System sys(cfg, makeSynthetic(stressParams(), cfg.seed));
    return sys.run();
}

} // namespace

TEST(FaultSystem, SlowWritesDelayFirstUncorrectableError)
{
    SimReport norm_r = runFaultSystem(norm());
    SimReport slow_r = runFaultSystem(slow());

    // The all-fast baseline burns through repairs and spares.
    EXPECT_GT(norm_r.permanentFaults, 0u);
    EXPECT_GT(norm_r.retiredLines, 0u);
    EXPECT_GT(norm_r.deadLines, 0u);
    ASSERT_GT(norm_r.firstUncorrectableTick, 0u);
    EXPECT_GE(norm_r.firstUncorrectableTick, norm_r.firstFaultTick);
    EXPECT_LT(norm_r.effectiveCapacityFraction, 1.0);

    // Slow writes wear 9x less per write: the first uncorrectable
    // error comes later, or never within this window.
    if (slow_r.firstUncorrectableTick != 0) {
        EXPECT_GT(slow_r.firstUncorrectableTick,
                  norm_r.firstUncorrectableTick);
    } else {
        EXPECT_LE(slow_r.deadLines, 0u);
    }
    // The analytic first-fault metric orders the same way.
    if (slow_r.firstFaultTick != 0) {
        EXPECT_GT(slow_r.firstFaultTick, norm_r.firstFaultTick);
    }
}

TEST(FaultSystem, MellowPolicyAlsoDelaysFirstUncorrectableError)
{
    SimReport norm_r = runFaultSystem(norm());
    SimReport mellow_r = runFaultSystem(beMellow().withSC());

    ASSERT_GT(norm_r.firstUncorrectableTick, 0u);
    if (mellow_r.firstUncorrectableTick != 0) {
        EXPECT_GT(mellow_r.firstUncorrectableTick,
                  norm_r.firstUncorrectableTick);
    }
}

TEST(FaultSystem, RetiredLinesAreTransparentlyRemapped)
{
    SystemConfig cfg = faultConfig(norm());
    System sys(cfg, makeSynthetic(stressParams(), cfg.seed));
    SimReport r = sys.run();
    ASSERT_GT(r.retiredLines, 0u);

    const FaultModel *fm = sys.controller().faultModel();
    ASSERT_NE(fm, nullptr);
    // Not a single write reached a retired line: all traffic to them
    // was redirected through the indirection table at issue time.
    EXPECT_EQ(fm->writesToRetiredLines(), 0u);
    EXPECT_TRUE(fm->remapTableValid());
    EXPECT_EQ(fm->remapEntries(), fm->stats().retiredLines);

    // Demand writes were all completed despite the failures: graceful
    // degradation, no lost requests.
    EXPECT_GT(r.writebacksToMem, 0u);
}

TEST(FaultSystem, InvariantCheckersPassOnFaultRun)
{
    // The checkers are plain functions of captured snapshots, so this
    // holds in every build mode (MELLOWSIM_CHECKS only gates the
    // periodic in-simulation wiring).
    SystemConfig cfg = faultConfig(norm());
    cfg.memory.fault.transientFailProb = 0.05;
    System sys(cfg, makeSynthetic(stressParams(), cfg.seed));
    SimReport r = sys.run();

    EXPECT_GT(r.writeRetries, 0u);
    EXPECT_GT(r.transientWriteFailures, 0u);

    const MemoryController &ctrl = sys.controller();
    std::vector<Violation> out;

    ViolationSink fault_sink("fault", 0, out);
    FaultChecker::evaluate(FaultChecker::capture(ctrl), fault_sink);

    ViolationSink req_sink("request-conservation", 0, out);
    RequestConservationChecker::evaluate(
        RequestConservationChecker::capture(ctrl), req_sink);

    ViolationSink wear_sink("wear-conservation", 0, out);
    WearConservationChecker::evaluate(
        WearConservationChecker::capture(ctrl), wear_sink);

    ViolationSink energy_sink("energy-cross-check", 0, out);
    EnergyCrossChecker::evaluate(EnergyCrossChecker::capture(ctrl),
                                 energy_sink);

    for (const Violation &v : out)
        ADD_FAILURE() << v.checker << ": " << v.message;
}

TEST(FaultSystem, FaultOutcomesAreDeterministic)
{
    SimReport a = runFaultSystem(norm());
    SimReport b = runFaultSystem(norm());
    EXPECT_EQ(a.firstFaultTick, b.firstFaultTick);
    EXPECT_EQ(a.firstUncorrectableTick, b.firstUncorrectableTick);
    EXPECT_EQ(a.permanentFaults, b.permanentFaults);
    EXPECT_EQ(a.faultRepairsUsed, b.faultRepairsUsed);
    EXPECT_EQ(a.retiredLines, b.retiredLines);
    EXPECT_EQ(a.deadLines, b.deadLines);
    EXPECT_EQ(a.writeRetries, b.writeRetries);
    EXPECT_DOUBLE_EQ(a.effectiveCapacityFraction,
                     b.effectiveCapacityFraction);
}

TEST(FaultSystem, FaultLayerOffChangesNothing)
{
    SystemConfig cfg = faultConfig(norm());
    cfg.memory.fault.enabled = false;
    System sys(cfg, makeSynthetic(stressParams(), cfg.seed));
    SimReport r = sys.run();
    EXPECT_EQ(sys.controller().faultModel(), nullptr);
    EXPECT_EQ(r.permanentFaults, 0u);
    EXPECT_EQ(r.writeRetries, 0u);
    EXPECT_EQ(r.firstUncorrectableTick, 0u);
    EXPECT_DOUBLE_EQ(r.effectiveCapacityFraction, 1.0);
}
