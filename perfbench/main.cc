/**
 * @file
 * The repository benchmark (see perfbench/README.md).
 *
 *   mellow_perfbench --workload <eager_mellow|norm_demand|paper_grid>
 *                    --seed <n> --seconds <s> --trace <0|1>
 *                    [--instructions <n>]
 *
 * --trace 0 repeats the workload's simulation set through the public
 * runner (runConfigs / runGrid) until --seconds have passed and
 * reports the end-to-end metrics (host time from the fastest
 * repetitions, setup time as a median).
 * --trace 1 makes one traced pass over the set (traced.cc) and reports
 * the per-layer metrics. Either way every simulation's output is
 * checked, and the last stdout line is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "mellow/policy.hh"
#include "perfbench.hh"
#include "sim/alloc_counter.hh"
#include "sim/logging.hh"
#include "system/report.hh"
#include "system/runner.hh"
#include "workload/workload.hh"

using namespace mellowsim;
using namespace perfbench;

namespace
{

/** Published Figures 10/11 geomeans of BE-Mellow+SC over Norm. */
constexpr double kPaperLifetimeGain = 2.58;
constexpr double kPaperIpcGain = 1.06;

/**
 * System constructions in one setup_s sample. A sample builds the
 * whole set as many times as this takes, in one timed span, and
 * divides by the number of builds; one is taken before the first and
 * after every repetition.
 */
constexpr std::size_t kSystemsPerSetupSample = 440;
/** Timed repetitions made even when --seconds runs out first. */
constexpr int kMinReps = 3;

/** Bound on the final op's compute gap retired past the limit. */
constexpr std::uint64_t kMaxOvershoot = 4096;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::uint64_t instructions = 1'000'000;
};

/** A named workload: which policies run, on how many workers. */
struct WorkloadSet
{
    std::string name;
    std::vector<WritePolicyConfig> policies;
    /** 1 = serial runConfigs; otherwise runGrid on this many. */
    unsigned workers;
};

const std::vector<WorkloadSet> &
workloadSets()
{
    static const std::vector<WorkloadSet> sets = {
        {"eager_mellow", {policies::beMellow().withSC().withWQ()}, 1},
        {"norm_demand", {policies::norm()}, 1},
        {"paper_grid", policies::paperPolicySet(), 2},
    };
    return sets;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "mellow_perfbench: %s\nusage: mellow_perfbench "
                 "--workload <eager_mellow|norm_demand|paper_grid> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--instructions <n>]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseCount(const char *flag, const char *text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        usage((std::string(flag) + " needs a whole number").c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (i + 1 >= argc)
            usage((std::string(flag) + " needs a value").c_str());
        const char *value = argv[++i];
        if (std::strcmp(flag, "--workload") == 0) {
            o.workload = value;
        } else if (std::strcmp(flag, "--seed") == 0) {
            o.seed = parseCount(flag, value);
        } else if (std::strcmp(flag, "--seconds") == 0) {
            o.seconds = static_cast<double>(parseCount(flag, value));
        } else if (std::strcmp(flag, "--trace") == 0) {
            o.trace = parseCount(flag, value) != 0;
        } else if (std::strcmp(flag, "--instructions") == 0) {
            o.instructions = parseCount(flag, value);
        } else {
            usage((std::string("unknown flag ") + flag).c_str());
        }
    }
    if (o.instructions == 0)
        usage("--instructions must be positive");
    return o;
}

const WorkloadSet &
findSet(const std::string &name)
{
    for (const WorkloadSet &set : workloadSets()) {
        if (set.name == name)
            return set;
    }
    usage(("unknown workload '" + name + "'").c_str());
}

/**
 * Bind the run length and seed; runGrid's tweak does the same. The
 * warm-up stays at the library default.
 */
void
applyOptions(const Options &o, SystemConfig &cfg)
{
    cfg.instructions = o.instructions;
    cfg.seed = o.seed;
}

/** The set's configurations, policy-major like runGrid. */
std::vector<SystemConfig>
makeConfigs(const Options &o, const std::vector<WritePolicyConfig> &pols)
{
    std::vector<SystemConfig> configs;
    for (const WritePolicyConfig &policy : pols) {
        for (const std::string &w : workloadNames()) {
            configs.push_back(makeConfig(w, policy));
            applyOptions(o, configs.back());
        }
    }
    return configs;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Host time of one timed piece of a run. */
struct Span
{
    double wall = 0.0;
    double cpu = 0.0;
};

/**
 * Run the whole set once, untraced, through the public runner, timing
 * it piece by piece into @p spans: every simulation of a serial set on
 * its own, a grid as its one runGrid call (its parallelism and load
 * balance are what it measures).
 */
std::vector<SimReport>
runSet(const Options &o, const WorkloadSet &set,
       const std::vector<SystemConfig> &configs, std::vector<Span> &spans)
{
    spans.clear();
    std::vector<SimReport> reports;
    auto timed = [&](auto &&run) {
        double cpu0 = cpuSeconds();
        Clock::time_point start = Clock::now();
        std::vector<SimReport> part = run();
        spans.push_back({secondsSince(start), cpuSeconds() - cpu0});
        reports.insert(reports.end(), part.begin(), part.end());
    };
    if (set.workers == 1) {
        for (const SystemConfig &cfg : configs)
            timed([&] { return runConfigs({cfg}, 1); });
        return reports;
    }
    timed([&] {
        return runGrid(workloadNames(), set.policies,
                       [&o](SystemConfig &cfg) { applyOptions(o, cfg); });
    });
    return reports;
}

/** FNV-1a over every report's fingerprint, in set order. */
std::uint64_t
fingerprintDigest(const std::vector<SimReport> &reports)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const SimReport &r : reports) {
        for (unsigned char ch : reportFingerprint(r)) {
            h ^= ch;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/**
 * Output check of one simulation: it ended ok, retired the requested
 * instructions (up to the final op's gap), and its MPKI sits in the
 * Table IV band that System.MpkiTracksTableIV asserts. Returns "" or
 * the failure.
 */
std::string
checkReport(const SimReport &r, const SystemConfig &cfg)
{
    char buf[200];
    if (r.status != ReportStatus::Ok) {
        std::snprintf(buf, sizeof(buf), "status %s",
                      reportStatusName(r.status));
        return buf;
    }
    if (r.workload != cfg.workloadName || r.policy != cfg.policy.name)
        return "report out of order: " + r.workload + "/" + r.policy;
    // The core stops after the op that crosses the limit, so it may
    // retire that op's compute gap beyond it, and never less.
    if (r.instructions < cfg.instructions ||
        r.instructions - cfg.instructions > kMaxOvershoot) {
        std::snprintf(buf, sizeof(buf), "retired %llu instructions for "
                      "a limit of %llu",
                      static_cast<unsigned long long>(r.instructions),
                      static_cast<unsigned long long>(cfg.instructions));
        return buf;
    }
    double target = paperMpki(r.workload);
    if (!(r.mpki > 0.6 * target && r.mpki < 1.5 * target)) {
        std::snprintf(buf, sizeof(buf), "MPKI %.3f outside "
                      "[0.6, 1.5] x Table IV %.3f", r.mpki, target);
        return buf;
    }
    return "";
}

/** Check a set's reports; returns how many failed. */
std::uint64_t
checkReports(const std::vector<SimReport> &reports,
             const std::vector<SystemConfig> &configs)
{
    if (reports.size() != configs.size()) {
        std::fprintf(stderr, "FAIL: %zu reports for %zu simulations\n",
                     reports.size(), configs.size());
        return configs.size();
    }
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        std::string why = checkReport(reports[i], configs[i]);
        if (!why.empty()) {
            std::fprintf(stderr, "FAIL: %s / %s: %s\n",
                         configs[i].workloadName.c_str(),
                         configs[i].policy.name.c_str(), why.c_str());
            ++failed;
        }
    }
    return failed;
}

/** Counts every simulation attempted and failed. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Run the set once, check it; false when it threw. */
    bool
    runChecked(const Options &o, const WorkloadSet &set,
               const std::vector<SystemConfig> &configs,
               std::vector<SimReport> &reports, std::vector<Span> &spans)
    {
        attempted += configs.size();
        try {
            reports = runSet(o, set, configs, spans);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "FAIL: %s threw: %s\n", set.name.c_str(),
                         e.what());
            failed += configs.size();
            return false;
        }
        failed += checkReports(reports, configs);
        return true;
    }
};

/**
 * |geomean(BE-Mellow+SC / Norm) / published - 1| for lifetime and
 * IPC, from reports that hold both policies on every generator.
 */
std::pair<double, double>
accuracyErrors(const std::vector<SimReport> &reports)
{
    const std::string mellow = policies::beMellow().withSC().name;
    const std::string base = policies::norm().name;
    double lifetime = geoMeanNormalized(
        reports, workloadNames(), mellow, base,
        [](const SimReport &r) { return r.lifetimeYears; });
    double ipc = geoMeanNormalized(reports, workloadNames(), mellow, base,
                                   [](const SimReport &r) { return r.ipc; });
    std::printf("# accuracy: BE-Mellow+SC / Norm geomean lifetime %.4fx "
                "(paper %.2fx), IPC %.4fx (paper %.2fx)\n",
                lifetime, kPaperLifetimeGain, ipc, kPaperIpcGain);
    return {std::fabs(lifetime / kPaperLifetimeGain - 1.0),
            std::fabs(ipc / kPaperIpcGain - 1.0)};
}

void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("# %-32s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                tally.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

/**
 * --trace 0: repeated untraced runs of the set. Every repetition does
 * bit-identical work (its fingerprint digest is checked against the
 * first), and interference from other tenants of a shared host only
 * ever slows work down, so each timed piece of the set (a simulation
 * of a serial set, the whole grid) is taken from its fastest
 * repetition, and wall_s / cpu_s are their sums. setup_s is the
 * median of set-up samples spread over the whole run, so a slow spell
 * of the host shifts it only in proportion to its length.
 */
int
runEndToEnd(const Options &o, const WorkloadSet &set)
{
    // setup_s: config binding plus System construction for every
    // simulation of the set, the work done before the first run.
    std::vector<double> setup;
    const std::size_t setSize = set.policies.size() * workloadNames().size();
    const std::size_t builds =
        (kSystemsPerSetupSample + setSize - 1) / setSize;
    auto timeSetups = [&] {
        Clock::time_point start = Clock::now();
        for (std::size_t i = 0; i < builds; ++i) {
            for (const SystemConfig &cfg : makeConfigs(o, set.policies))
                System sys(cfg);
        }
        setup.push_back(secondsSince(start) / builds);
    };
    timeSetups();

    const std::vector<SystemConfig> configs = makeConfigs(o, set.policies);
    Tally tally;
    std::vector<Span> fastest;
    std::vector<double> repWall;
    std::vector<SimReport> first;
    std::uint64_t firstDigest = 0;
    Clock::time_point loopStart = Clock::now();
    while (static_cast<int>(repWall.size()) < kMinReps ||
           secondsSince(loopStart) < o.seconds) {
        std::vector<SimReport> reports;
        std::vector<Span> spans;
        if (!tally.runChecked(o, set, configs, reports, spans))
            break;
        if (fastest.empty())
            fastest = spans;
        double wall = 0.0;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            fastest[i].wall = std::min(fastest[i].wall, spans[i].wall);
            fastest[i].cpu = std::min(fastest[i].cpu, spans[i].cpu);
            wall += spans[i].wall;
        }
        repWall.push_back(wall);
        timeSetups();

        // Every repetition must reproduce the first bit for bit.
        std::uint64_t digest = fingerprintDigest(reports);
        if (first.empty()) {
            first = std::move(reports);
            firstDigest = digest;
        } else if (digest != firstDigest) {
            std::fprintf(stderr, "FAIL: repetition %zu's fingerprints "
                         "differ from the first's\n", repWall.size());
            ++tally.failed;
        }
    }
    const double rssMb = peakRssMb();
    if (repWall.empty()) {
        printResult(tally, {});
        return 0;
    }
    std::printf("# %s seed=%llu: %zu repetitions of %zu simulations, "
                "fingerprint digest %016llx\n",
                set.name.c_str(), static_cast<unsigned long long>(o.seed),
                repWall.size(), configs.size(),
                static_cast<unsigned long long>(firstDigest));
    std::printf("# wall_s per repetition:");
    for (double w : repWall)
        std::printf(" %.4f", w);
    std::printf("\n# setup_s per sample:");
    for (double s : setup)
        std::printf(" %.6f", s);
    std::printf("\n");

    // The serial workloads do not hold both policies the accuracy
    // metrics compare; run the pair once, outside every timed span.
    std::vector<SimReport> pairReports = first;
    if (set.workers == 1) {
        const WorkloadSet pair{
            "accuracy_pair",
            {policies::norm(), policies::beMellow().withSC()}, 1};
        std::vector<Span> untimed;
        if (!tally.runChecked(o, pair, makeConfigs(o, pair.policies),
                              pairReports, untimed)) {
            printResult(tally, {});
            return 0;
        }
    }
    auto [lifetimeErr, ipcErr] = accuracyErrors(pairReports);

    double instrs = 0.0;
    for (const SimReport &r : first)
        instrs += static_cast<double>(r.instructions);
    double wall = 0.0;
    double cpu = 0.0;
    for (const Span &span : fastest) {
        wall += span.wall;
        cpu += span.cpu;
    }
    printResult(tally, {
        {"wall_s", wall, "s"},
        {"cpu_s", cpu, "s"},
        {"minstr_per_s", instrs / wall / 1e6, "Minstr/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", rssMb, "MB"},
        {"lifetime_gain_err", lifetimeErr, "frac"},
        {"ipc_gain_err", ipcErr, "frac"},
    });
    return 0;
}

/**
 * --trace 1: the traced pass over the set, then one untraced run of
 * the whole set for system.worker_busy_frac: the process CPU seconds
 * of that run over workers x its wall seconds. Workers use CPU only
 * while they simulate, and the main thread blocks in join.
 */
int
runTraced(const Options &o, const WorkloadSet &set)
{
    const std::vector<SystemConfig> configs = makeConfigs(o, set.policies);
    Tally tally;
    LayerTotals totals;
    for (const SystemConfig &cfg : configs) {
        ++tally.attempted;
        std::string mismatch = traceConfig(cfg, totals);
        if (!mismatch.empty()) {
            std::fprintf(stderr, "FAIL: traced %s / %s diverged from "
                         "System::run: %s\n", cfg.workloadName.c_str(),
                         cfg.policy.name.c_str(), mismatch.c_str());
            ++tally.failed;
        }
    }
    std::vector<SimReport> reports;
    std::vector<Span> spans;
    tally.runChecked(o, set, configs, reports, spans);
    double setWall = 0.0;
    double setCpu = 0.0;
    for (const Span &span : spans) {
        setWall += span.wall;
        setCpu += span.cpu;
    }
    const double busyFrac =
        setWall > 0.0 ? setCpu / (set.workers * setWall) : 0.0;

    std::printf("# %s seed=%llu: traced %zu simulations, each exact "
                "against System::run unless reported above\n",
                set.name.c_str(), static_cast<unsigned long long>(o.seed),
                configs.size());
    if (!alloccounter::enabled()) {
        std::printf("# sim.allocs_per_memreq absent: the allocation "
                    "counter is compiled out\n");
    }
    printResult(tally, layerMetrics(totals, busyFrac));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const WorkloadSet &set = findSet(o.workload);

    // The environment knobs makeConfig/runGrid honour would change the
    // machine or the path under test; the benchmark fixes them.
    for (const char *knob : {"MELLOWSIM_INSTRS", "MELLOWSIM_WARMUP",
                             "MELLOWSIM_DEVICE", "MELLOWSIM_SHARDS"}) {
        unsetenv(knob);
    }
    setenv("MELLOWSIM_JOBS", std::to_string(set.workers).c_str(), 1);
    Logger::setQuiet(true);

    try {
        return o.trace ? runTraced(o, set) : runEndToEnd(o, set);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mellow_perfbench: %s\n", e.what());
        return 1;
    }
}
