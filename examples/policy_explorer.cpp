/**
 * @file
 * Policy explorer: evaluate any Table III policy names on any
 * workloads and print a comparison table or CSV.
 *
 * Usage:
 *   policy_explorer [--csv] [--workloads w1,w2,...]
 *                   [--policies p1,p2,...] [--instrs N]
 *
 * Policy names use the paper's spelling, e.g. Norm, Slow, B-Mellow,
 * BE-Mellow, E-Norm, E-Slow with +NC/+SC/+WQ suffixes:
 *   policy_explorer --workloads stream,gups \
 *                   --policies Norm,BE-Mellow+SC+WQ
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "mellow/policy.hh"
#include "system/report.hh"
#include "system/runner.hh"
#include "system/system.hh"

using namespace mellowsim;

namespace
{

std::vector<std::string>
splitCsv(const std::string &arg)
{
    std::vector<std::string> out;
    std::stringstream ss(arg);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    applyDeviceArgs(argc, argv);
    bool csv = false;
    std::vector<std::string> workloads = workloadNames();
    std::vector<std::string> policy_names = {"Norm", "B-Mellow+SC",
                                             "BE-Mellow+SC",
                                             "BE-Mellow+SC+WQ"};
    std::uint64_t instrs = 0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--csv") {
            csv = true;
        } else if (arg == "--workloads" && i + 1 < argc) {
            workloads = splitCsv(argv[++i]);
        } else if (arg == "--policies" && i + 1 < argc) {
            policy_names = splitCsv(argv[++i]);
        } else if (arg == "--instrs" && i + 1 < argc) {
            instrs = parseCount(argv[++i], "--instrs");
        } else {
            std::fprintf(stderr,
                         "usage: %s [--csv] [--workloads w,...] "
                         "[--policies p,...] [--instrs N]\n",
                         argv[0]);
            return 1;
        }
    }

    std::vector<WritePolicyConfig> pols;
    for (const std::string &name : policy_names)
        pols.push_back(policies::fromName(name));

    auto reports = runGrid(workloads, pols, [&](SystemConfig &cfg) {
        if (instrs)
            cfg.instructions = instrs;
    });

    if (csv) {
        std::printf("%s", reportsToCsv(reports).c_str());
        return 0;
    }

    std::printf("%s\n",
                reportsToTable(reports,
                               {"workload", "policy", "ipc",
                                "lifetime_years", "bank_utilization",
                                "drain_fraction", "mpki"})
                    .c_str());
    for (const std::string &p : policy_names) {
        if (p == "Norm")
            continue;
        std::printf(
            "%-18s vs Norm: %.3fx IPC, %.2fx lifetime (geomean)\n",
            p.c_str(),
            geoMeanNormalized(reports, workloads, p, "Norm",
                              [](const SimReport &r) { return r.ipc; }),
            geoMeanNormalized(reports, workloads, p, "Norm",
                              [](const SimReport &r) {
                                  return r.lifetimeYears;
                              }));
    }
    return 0;
}
