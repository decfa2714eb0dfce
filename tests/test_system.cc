/** @file End-to-end system tests: paper-level invariants. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

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
    cfg.checks.enabled = true;
    return cfg;
}

/**
 * Two hand-built reports with a distinct value in every field: one
 * stopped at the capacity floor with nonzero fault ticks, one with an
 * unbounded lifetime and no faults.
 */
std::vector<SimReport>
pinnedReports()
{
    SimReport a;
    a.workload = "gups";
    a.policy = "BE-Mellow+SC+WQ";
    a.status = ReportStatus::CapacityExhausted;
    a.instructions = 123456789;
    a.simTicks = 987654321987;
    a.ipc = 1.23456789;
    a.lifetimeYears = 7.6543219;
    a.avgBankUtilization = 0.45678912;
    a.drainTimeFraction = 0.01234567;
    a.mpki = 12.345678;
    a.llcDemandReads = 11;
    a.llcDemandWrites = 12;
    a.llcMisses = 13;
    a.writebacksToMem = 14;
    a.eagerSent = 15;
    a.eagerWasted = 16;
    a.memReads = 17;
    a.forwardedReads = 18;
    a.issuedNormalWrites = 19;
    a.issuedSlowWrites = 20;
    a.issuedEagerNormal = 21;
    a.issuedEagerSlow = 22;
    a.cancelledWrites = 23;
    a.pausedWrites = 24;
    a.drainEntries = 25;
    a.avgReadLatencyNs = 123.4567;
    a.readEnergyPj = Picojoules(1.5e6);
    a.writeEnergyPj = Picojoules(2.25e7);
    a.totalEnergyPj = Picojoules(2.4e7);
    a.quotaPeriods = 26;
    a.quotaSlowOnlyPeriods = 27;
    a.writeRetries = 28;
    a.transientWriteFailures = 29;
    a.permanentFaults = 30;
    a.faultRepairsUsed = 31;
    a.retiredLines = 32;
    a.deadLines = 33;
    a.firstFaultTick = 5000123;
    a.firstUncorrectableTick = 7000456;
    a.effectiveCapacityFraction = 0.987654321;

    SimReport b;
    b.workload = "stream";
    b.policy = "Norm";
    b.instructions = 2000000;
    b.simTicks = 1000000000;
    b.ipc = 0.5;
    b.lifetimeYears = std::numeric_limits<double>::infinity();
    b.mpki = 3.0;
    b.memReads = 4096;
    b.issuedNormalWrites = 512;
    b.avgReadLatencyNs = 80.0;
    b.totalEnergyPj = Picojoules(1e9);
    return {a, b};
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

    // The same parser backs the examples' and tools' argv counts,
    // which also reject trailing garbage.
    for (const char *bad : {"-1", " -5", "99999999999999999999999",
                            "12abc", "", "1e6"}) {
        EXPECT_THROW(parseCount(bad, "instructions"), FatalError) << bad;
    }
    EXPECT_EQ(parseCount("200000", "instructions"), 200000u);
    EXPECT_EQ(parseCount("0", "faults"), 0u);
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

    // Table columns are CSV names and print in the CSV format.
    std::string table = reportsToTable(
        reports, {"workload", "policy", "ipc", "lifetime_years",
                  "bank_utilization", "drain_fraction", "first_ue_ns"});
    EXPECT_NE(table.find("gups"), std::string::npos);
    EXPECT_NE(table.find("lifetime_years"), std::string::npos);
    char ipc[32];
    std::snprintf(ipc, sizeof(ipc), "%.4f", reports[0].ipc);
    EXPECT_NE(table.find(ipc), std::string::npos);
    EXPECT_THROW(reportsToTable(reports, {"nope"}), FatalError);

    // Column names are checked even when there is no row to render.
    EXPECT_EQ(reportsToTable({}, {"workload", "ipc"}),
              "workload  ipc\n-------------\n");
    EXPECT_THROW(reportsToTable({}, {"nope"}), FatalError);
    EXPECT_THROW(reportsToTable({}, {"workload", "capacityFloorReached"}),
                 FatalError);
}

TEST(System, CsvAndFingerprintArePinnedByteForByte)
{
    // Every field holds a distinct value, so a renamed, reordered or
    // reformatted column or fingerprint line fails here.
    const std::vector<SimReport> reports = pinnedReports();
    EXPECT_EQ(reportsToCsv(reports),
        "workload,policy,status,instructions,sim_ns,ipc,lifetime_years,"
        "bank_utilization,drain_fraction,mpki,llc_demand_reads,"
        "llc_demand_writes,llc_misses,writebacks_to_mem,eager_sent,"
        "eager_wasted,mem_reads,forwarded_reads,normal_writes,"
        "slow_writes,eager_normal,eager_slow,cancelled_writes,"
        "paused_writes,drain_entries,avg_read_latency_ns,read_energy_pj,"
        "write_energy_pj,total_energy_pj,quota_periods,quota_slow_only,"
        "write_retries,transient_failures,permanent_faults,fault_repairs,"
        "retired_lines,dead_lines,first_fault_ns,first_ue_ns,"
        "effective_capacity\n"
        "gups,BE-Mellow+SC+WQ,capacity-exhausted,123456789,987654322.0,"
        "1.2346,7.654,0.4568,0.01235,12.346,11,12,13,14,15,16,17,18,19,"
        "20,21,22,23,24,25,123.46,1.500e+06,2.250e+07,2.400e+07,26,27,28,"
        "29,30,31,32,33,5000.1,7000.5,0.987654\n"
        "stream,Norm,ok,2000000,1000000.0,0.5000,inf,0.0000,0.00000,"
        "3.000,0,0,0,0,0,0,4096,0,512,0,0,0,0,0,0,80.00,0.000e+00,"
        "0.000e+00,1.000e+09,0,0,0,0,0,0,0,0,0.0,0.0,1.000000\n");
    EXPECT_EQ(reportFingerprint(reports[0]),
        "workload gups\n"
        "policy BE-Mellow+SC+WQ\n"
        "status capacity-exhausted\n"
        "capacityFloorReached 1\n"
        "instructions 123456789\n"
        "simTicks 987654321987\n"
        "ipc 1.2345678899999999\n"
        "lifetimeYears 7.6543219000000002\n"
        "avgBankUtilization 0.45678911999999999\n"
        "drainTimeFraction 0.01234567\n"
        "mpki 12.345677999999999\n"
        "llcDemandReads 11\n"
        "llcDemandWrites 12\n"
        "llcMisses 13\n"
        "writebacksToMem 14\n"
        "eagerSent 15\n"
        "eagerWasted 16\n"
        "memReads 17\n"
        "forwardedReads 18\n"
        "issuedNormalWrites 19\n"
        "issuedSlowWrites 20\n"
        "issuedEagerNormal 21\n"
        "issuedEagerSlow 22\n"
        "cancelledWrites 23\n"
        "pausedWrites 24\n"
        "drainEntries 25\n"
        "avgReadLatencyNs 123.4567\n"
        "readEnergyPj 1500000\n"
        "writeEnergyPj 22500000\n"
        "totalEnergyPj 24000000\n"
        "quotaPeriods 26\n"
        "quotaSlowOnlyPeriods 27\n"
        "writeRetries 28\n"
        "transientWriteFailures 29\n"
        "permanentFaults 30\n"
        "faultRepairsUsed 31\n"
        "retiredLines 32\n"
        "deadLines 33\n"
        "firstFaultTick 5000123\n"
        "firstUncorrectableTick 7000456\n"
        "effectiveCapacityFraction 0.98765432099999995\n");
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
