/**
 * @file
 * Quickstart: simulate one workload under the baseline policy and
 * under the paper's best Mellow Writes policy, and compare.
 *
 * Usage: quickstart [workload] [instructions]
 *   workload      one of the Table IV names (default: stream)
 *   instructions  detailed-simulation length (default: 10000000)
 */

#include <cstdio>
#include <string>

#include "mellow/policy.hh"
#include "system/report.hh"
#include "system/runner.hh"
#include "system/system.hh"

using namespace mellowsim;

int
main(int argc, char **argv)
{
    applyDeviceArgs(argc, argv);
    std::string workload = argc > 1 ? argv[1] : "stream";
    std::uint64_t instrs =
        argc > 2 ? parseCount(argv[2], "instructions") : 10'000'000ull;

    std::printf("mellowsim quickstart: workload=%s instructions=%llu\n\n",
                workload.c_str(),
                static_cast<unsigned long long>(instrs));

    std::vector<SimReport> reports;
    for (const WritePolicyConfig &policy :
         {policies::norm(), policies::beMellow().withSC(),
          policies::beMellow().withSC().withWQ()}) {
        SystemConfig cfg = makeConfig(workload, policy);
        cfg.instructions = instrs;
        reports.push_back(runSystem(cfg));
    }

    std::printf("%s\n",
                reportsToTable(reports, {"workload", "policy", "ipc",
                                         "lifetime_years",
                                         "bank_utilization",
                                         "drain_fraction", "mpki"})
                    .c_str());

    const SimReport &norm = reports[0];
    const SimReport &mellow = reports[1];
    std::printf("BE-Mellow+SC vs Norm: %.2fx IPC, %.2fx lifetime\n",
                mellow.ipc / norm.ipc,
                mellow.lifetimeYears / norm.lifetimeYears);
    std::printf("(the paper reports ~1.06x IPC and ~2.58x lifetime as "
                "the 11-workload geometric mean)\n");
    return 0;
}
