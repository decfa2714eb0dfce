/**
 * @file
 * Shared plumbing for the figure/table reproduction binaries.
 *
 * Every fig*_ binary regenerates one artifact of the paper's
 * evaluation: it prints the same rows/series the figure plots, plus
 * the headline comparisons the paper calls out in prose, so
 * paper-vs-measured can be recorded in EXPERIMENTS.md.
 *
 * Scaling knobs (environment):
 *   MELLOWSIM_INSTRS  detailed instructions per run (default 2e7)
 *   MELLOWSIM_WARMUP  functional warm-up instructions (default 5e6)
 *   MELLOWSIM_JOBS    parallel simulations (default: all cores)
 *   MELLOWSIM_DEVICE  device config from configs/ (default: the
 *                     compiled-in reram_paper point)
 *
 * Every binary also takes --device <name> / --device=<name> and
 * --list-devices (see applyBenchArgs), so a figure can be regenerated
 * for any device in the zoo without touching the environment.
 */

#ifndef MELLOWSIM_BENCH_BENCH_UTIL_HH
#define MELLOWSIM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <vector>

#include "mellow/policy.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "system/report.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workload/workload.hh"

namespace benchutil
{

using namespace mellowsim;

/**
 * Consume the flags shared by every bench binary (--device,
 * --list-devices), leaving positional arguments compacted in argv.
 * Call first thing in main().
 */
inline void
applyBenchArgs(int &argc, char **argv)
{
    applyDeviceArgs(argc, argv);
}

/** Print the standard experiment banner, naming any selected device. */
inline void
banner(const char *id, const char *title, const char *paperClaim)
{
    std::printf("==============================================================\n");
    std::printf("%s: %s\n", id, title);
    std::printf("paper: %s\n", paperClaim);
    // Device provenance goes to stderr: it is a diagnostic, and
    // keeping it out of the data stream preserves the fidelity
    // oracle — `--device reram_paper` output is byte-identical to
    // the default on stdout.
    const std::string device = activeDeviceName();
    if (!device.empty())
        std::fprintf(stderr, "device: %s\n", device.c_str());
    std::printf("==============================================================\n\n");
}

/** Print one named series of per-workload values. */
inline void
series(const std::string &name, const std::vector<std::string> &workloads,
       const std::vector<double> &values, const char *fmt = "%8.3f")
{
    // A length mismatch would print columns that silently misalign
    // with the seriesHeader() workload row.
    fatal_if(values.size() != workloads.size(),
             "series '%s': %zu values for %zu workloads", name.c_str(),
             values.size(), workloads.size());
    std::printf("%-18s", name.c_str());
    for (double v : values) {
        std::printf(" ");
        std::printf(fmt, v);
    }
    std::printf("\n");
}

/** Print the workload header row aligned with series(). */
inline void
seriesHeader(const std::vector<std::string> &workloads, int width = 8)
{
    std::printf("%-18s", "");
    for (const std::string &w : workloads)
        std::printf(" %*s", width, w.substr(0, width).c_str());
    std::printf("\n");
}

/** Gather a metric across workloads for one policy. */
inline std::vector<double>
metricRow(const std::vector<SimReport> &reports,
          const std::vector<std::string> &workloads,
          const std::string &policy, double (*metric)(const SimReport &))
{
    std::vector<double> out;
    for (const std::string &w : workloads)
        out.push_back(metric(findReport(reports, w, policy)));
    return out;
}

inline double
ipcOf(const SimReport &r)
{
    return r.ipc;
}

inline double
lifetimeOf(const SimReport &r)
{
    return r.lifetimeYears;
}

} // namespace benchutil

#endif // MELLOWSIM_BENCH_BENCH_UTIL_HH
