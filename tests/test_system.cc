/** @file End-to-end system tests: paper-level invariants. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>

#include "sim/logging.hh"
#include "system/report.hh"
#include "system/runner.hh"
#include "system/system.hh"

using namespace mellowsim;
using namespace mellowsim::policies;

namespace
{

SystemConfig
quickConfig(const std::string &workload, const WritePolicyConfig &policy,
            std::uint64_t instrs = 2'000'000)
{
    SystemConfig cfg;
    cfg.workloadName = workload;
    cfg.policy = policy;
    cfg.instructions = instrs;
    cfg.warmupInstructions = 1'000'000;
    return cfg;
}

} // namespace

TEST(System, ReportIsSane)
{
    SimReport r = runSystem(quickConfig("stream", norm()));
    EXPECT_EQ(r.workload, "stream");
    EXPECT_EQ(r.policy, "Norm");
    EXPECT_GE(r.instructions, 2'000'000u);
    EXPECT_GT(r.simTicks, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LE(r.ipc, 8.0);
    EXPECT_GT(r.lifetimeYears, 0.0);
    EXPECT_GT(r.avgBankUtilization, 0.0);
    EXPECT_LE(r.avgBankUtilization, 1.0);
    EXPECT_GE(r.drainTimeFraction, 0.0);
    EXPECT_LE(r.drainTimeFraction, 1.0);
    EXPECT_GT(r.memReads, 0u);
    EXPECT_GT(r.issuedNormalWrites, 0u);
    EXPECT_GT(r.totalEnergyPj.value(), 0.0);
}

TEST(System, DeterministicAcrossRuns)
{
    SimReport a = runSystem(quickConfig("milc", beMellow().withSC(),
                                        1'000'000));
    SimReport b = runSystem(quickConfig("milc", beMellow().withSC(),
                                        1'000'000));
    EXPECT_EQ(a.simTicks, b.simTicks);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_DOUBLE_EQ(a.lifetimeYears, b.lifetimeYears);
    EXPECT_EQ(a.memReads, b.memReads);
    EXPECT_EQ(a.totalBankWrites(), b.totalBankWrites());
    EXPECT_EQ(a.eagerSent, b.eagerSent);
}

TEST(System, SlowWritesExtendLifetimeAndCostPerformance)
{
    SimReport n = runSystem(quickConfig("stream", norm()));
    SimReport s = runSystem(quickConfig("stream", slow()));
    EXPECT_GT(s.lifetimeYears, 2.0 * n.lifetimeYears);
    EXPECT_LT(s.ipc, n.ipc * 1.001);
}

TEST(System, BeMellowBeatsNormLifetimeWithoutHurtingIpc)
{
    // Wear comparisons need a window long enough that the dirty lines
    // still resident in the LLC at the end are noise relative to the
    // write backs that actually flowed to memory.
    SimReport n = runSystem(quickConfig("stream", norm(), 6'000'000));
    SimReport m =
        runSystem(quickConfig("stream", beMellow().withSC(),
                              6'000'000));
    EXPECT_GT(m.lifetimeYears, 1.3 * n.lifetimeYears);
    // stream is one of the paper's three write-latency-sensitive
    // workloads (Fig. 19) where mellow writes cost some IPC.
    EXPECT_GT(m.ipc, 0.8 * n.ipc);
    EXPECT_GT(m.eagerSent, 0u);
    EXPECT_GT(m.issuedEagerSlow, 0u);
}

TEST(System, ESlowHasLongestLifetime)
{
    SimReport s = runSystem(quickConfig("lbm", eSlow().withSC(),
                                        1'000'000));
    SimReport n = runSystem(quickConfig("lbm", norm(), 1'000'000));
    SimReport m = runSystem(quickConfig("lbm", beMellow().withSC(),
                                        1'000'000));
    EXPECT_GE(s.lifetimeYears, m.lifetimeYears * 0.999);
    EXPECT_GT(m.lifetimeYears, n.lifetimeYears);
    // Globally slow writes hurt the write-heavy lbm badly (paper:
    // 0.46x IPC).
    EXPECT_LT(s.ipc, 0.8 * n.ipc);
}

TEST(System, MpkiTracksTableIV)
{
    // The generators are calibrated against Table IV; the measured
    // MPKI on the real hierarchy must land in the right ballpark.
    // The cache-friendly workloads (hmmer, zeusmp) need their hot
    // region fully warmed or cold misses inflate the measurement.
    for (const std::string &name : workloadNames()) {
        SystemConfig cfg = quickConfig(name, norm(), 2'000'000);
        cfg.warmupInstructions = 5'000'000;
        SimReport r = runSystem(cfg);
        double target = paperMpki(name);
        EXPECT_GT(r.mpki, target * 0.6) << name;
        EXPECT_LT(r.mpki, target * 1.5) << name;
    }
}

TEST(System, EagerWritesConvertDemandWritebacks)
{
    SimReport n = runSystem(quickConfig("stream", norm()));
    SimReport m = runSystem(quickConfig("stream", beMellow().withSC()));
    // Eager write backs replace a large share of demand write backs
    // (Figure 14: nearly half of the writes become eager).
    EXPECT_LT(m.writebacksToMem, n.writebacksToMem);
    EXPECT_GT(m.eagerSent,
              (m.writebacksToMem + m.eagerSent) / 4);
}

TEST(System, WearQuotaRaisesLifetimeTowardTarget)
{
    // lbm under Norm dies young; +WQ must push lifetime up by forcing
    // slow writes.
    SimReport n = runSystem(quickConfig("lbm", norm(), 3'000'000));
    SimReport q = runSystem(quickConfig("lbm", norm().withWQ(),
                                        3'000'000));
    EXPECT_GT(q.lifetimeYears, n.lifetimeYears);
    EXPECT_GT(q.issuedSlowWrites, 0u);
    EXPECT_GT(q.quotaPeriods, 0u);
    EXPECT_GT(q.quotaSlowOnlyPeriods, 0u);
}

TEST(System, CancellationBoostsReadLatencyUnderSlowWrites)
{
    SimReport plain = runSystem(quickConfig("milc", slow(),
                                            1'000'000));
    SimReport sc = runSystem(quickConfig("milc", slow().withSC(),
                                         1'000'000));
    EXPECT_GT(sc.cancelledWrites, 0u);
    EXPECT_LT(sc.avgReadLatencyNs, plain.avgReadLatencyNs);
}

TEST(System, EnergyScalesWithSlowWriteShare)
{
    // gups evicts its dirty lines promptly, so write backs flow even
    // in a short window.
    SimReport n = runSystem(quickConfig("gups", norm(), 2'000'000));
    SimReport s = runSystem(quickConfig("gups", slow(), 2'000'000));
    ASSERT_GT(n.totalBankWrites(), 0u);
    ASSERT_GT(s.totalBankWrites(), 0u);
    // Same work, pricier writes: more write energy per write.
    double n_per_write =
        n.writeEnergyPj.value() / static_cast<double>(n.totalBankWrites());
    double s_per_write =
        s.writeEnergyPj.value() / static_cast<double>(s.totalBankWrites());
    EXPECT_NEAR(s_per_write / n_per_write, 1.66, 0.05); // CellC ratio
}

TEST(System, RunTwicePanics)
{
    System sys(quickConfig("gups", norm(), 200'000));
    sys.run();
    EXPECT_THROW(sys.run(), PanicError);
}

TEST(System, UnknownWorkloadIsFatal)
{
    SystemConfig cfg = quickConfig("doom", norm());
    EXPECT_THROW(System{cfg}, FatalError);
}

namespace
{

/** Sets an environment variable for one scope, then restores it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : _name(name)
    {
        if (const char *old = std::getenv(name))
            _old = old;
        setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (_old)
            setenv(_name, _old->c_str(), 1);
        else
            unsetenv(_name);
    }

  private:
    const char *_name;
    std::optional<std::string> _old;
};

} // namespace

TEST(System, RunnerRejectsNegativeAndOverflowingCounts)
{
    // strtoull would wrap "-1" to 2^64 - 1 instructions and saturate
    // on overflow; both must be configuration errors.
    for (const char *bad : {"-1", " -5", "99999999999999999999999"}) {
        {
            ScopedEnv env("MELLOWSIM_INSTRS", bad);
            EXPECT_THROW(makeConfig("gups", norm()), FatalError) << bad;
        }
        {
            ScopedEnv env("MELLOWSIM_WARMUP", bad);
            EXPECT_THROW(makeConfig("gups", norm()), FatalError) << bad;
        }
        {
            ScopedEnv env("MELLOWSIM_JOBS", bad);
            EXPECT_THROW(runConfigs({}), FatalError) << bad;
        }
    }
    ScopedEnv env("MELLOWSIM_INSTRS", "12345");
    EXPECT_EQ(makeConfig("gups", norm()).instructions, 12345u);
}

TEST(System, RunnerGridAndLookups)
{
    auto reports = runGrid({"gups", "milc"}, {norm(), slow()},
                           [](SystemConfig &cfg) {
                               cfg.instructions = 300'000;
                               cfg.warmupInstructions = 100'000;
                           });
    ASSERT_EQ(reports.size(), 4u);
    const SimReport &r = findReport(reports, "milc", "Slow");
    EXPECT_EQ(r.workload, "milc");
    EXPECT_EQ(r.policy, "Slow");
    EXPECT_THROW(findReport(reports, "milc", "Fast"), FatalError);

    // IPC is always finite and positive, even in tiny windows where
    // no write back has reached memory yet.
    double ratio = geoMeanNormalized(
        reports, {"gups", "milc"}, "Slow", "Norm",
        [](const SimReport &x) { return x.ipc; });
    EXPECT_GT(ratio, 0.2);
    EXPECT_LE(ratio, 1.001);
}

TEST(System, CsvAndTableRender)
{
    auto reports = runGrid({"gups"}, {norm()}, [](SystemConfig &cfg) {
        cfg.instructions = 200'000;
        cfg.warmupInstructions = 100'000;
    });
    std::string csv = reportsToCsv(reports);
    EXPECT_NE(csv.find("workload,policy"), std::string::npos);
    EXPECT_NE(csv.find("gups,Norm"), std::string::npos);

    std::string table =
        reportsToTable(reports, {"workload", "policy", "ipc"});
    EXPECT_NE(table.find("gups"), std::string::npos);
    EXPECT_THROW(reportsToTable(reports, {"nope"}), FatalError);
}

TEST(System, FewerBanksShrinkMellowBenefit)
{
    // Figure 18: with 4 banks the lifetime gap between Norm and
    // BE-Mellow+SC narrows vs 16 banks.
    auto with_banks = [](unsigned banks, const WritePolicyConfig &p) {
        SystemConfig cfg = quickConfig("GemsFDTD", p, 6'000'000);
        cfg.memory.geometry.numBanks = banks;
        cfg.memory.geometry.numRanks = banks / 4;
        return runSystem(cfg);
    };
    SimReport n16 = with_banks(16, norm());
    SimReport m16 = with_banks(16, beMellow().withSC());
    SimReport n4 = with_banks(4, norm());
    SimReport m4 = with_banks(4, beMellow().withSC());
    double gain16 = m16.lifetimeYears / n16.lifetimeYears;
    double gain4 = m4.lifetimeYears / n4.lifetimeYears;
    EXPECT_GT(gain16, gain4);
}

TEST(System, ExpoFactorSweepIsMonotoneForSlow)
{
    // Figure 17: lifetime of Slow policies grows with Expo_Factor.
    double prev = 0.0;
    for (double expo : {1.0, 2.0, 3.0}) {
        SystemConfig cfg = quickConfig("milc", slow(), 600'000);
        cfg.memory.endurance.expoFactor = expo;
        SimReport r = runSystem(cfg);
        EXPECT_GT(r.lifetimeYears, prev);
        prev = r.lifetimeYears;
    }
}
