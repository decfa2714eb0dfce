/**
 * @file
 * Lifetime guarantee scenario: a deployment must survive a target
 * number of years under its worst (most write-intensive) workloads.
 *
 * Runs the write-heavy workloads under the baseline, under the best
 * Mellow Writes policy, and under Mellow Writes + Wear Quota tuned to
 * the requested target, showing that only the quota delivers a floor.
 *
 * Usage: lifetime_guarantee [target_years] [instructions]
 */

#include <cstdio>
#include <cstdlib>

#include "mellow/policy.hh"
#include "system/report.hh"
#include "system/runner.hh"
#include "system/system.hh"

using namespace mellowsim;

int
main(int argc, char **argv)
{
    applyDeviceArgs(argc, argv);
    double target = argc > 1 ? std::atof(argv[1]) : 8.0;
    std::uint64_t instrs =
        argc > 2 ? parseCount(argv[2], "instructions") : 16'000'000ull;
    if (target <= 0.0) {
        std::fprintf(stderr, "target years must be positive\n");
        return 1;
    }

    std::printf("Guaranteeing a %.1f-year lifetime on write-heavy "
                "workloads\n\n",
                target);

    const std::vector<std::string> heavy = {"lbm", "gups", "stream",
                                            "milc", "libquantum"};
    std::vector<WritePolicyConfig> pols = {
        policies::norm(),
        policies::beMellow().withSC(),
        policies::beMellow().withSC().withWQ(),
    };

    auto reports = runGrid(heavy, pols, [&](SystemConfig &cfg) {
        cfg.instructions = instrs;
        cfg.memory.quota.targetLifetimeYears = target;
    });

    std::printf("%s\n",
                reportsToTable(reports, {"workload", "policy", "ipc",
                                         "lifetime_years",
                                         "drain_fraction"})
                    .c_str());

    int norm_ok = 0, mellow_ok = 0, quota_ok = 0;
    for (const std::string &w : heavy) {
        norm_ok += findReport(reports, w, "Norm").lifetimeYears >=
                   target * 0.95;
        mellow_ok +=
            findReport(reports, w, "BE-Mellow+SC").lifetimeYears >=
            target * 0.95;
        quota_ok +=
            findReport(reports, w, "BE-Mellow+SC+WQ").lifetimeYears >=
            target * 0.95;
    }
    std::printf("workloads within 5%% of the %.1f-year target:\n"
                "  Norm            %d/%zu\n"
                "  BE-Mellow+SC    %d/%zu\n"
                "  BE-Mellow+SC+WQ %d/%zu  <- Wear Quota trades IPC "
                "for the floor\n",
                target, norm_ok, heavy.size(), mellow_ok, heavy.size(),
                quota_ok, heavy.size());
    std::printf("\n(the quota converges to the target as the horizon "
                "grows; short runs sit slightly below it)\n");
    return 0;
}
