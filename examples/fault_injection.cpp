/**
 * @file
 * Fault-injection scenario: what does "lifetime" mean when lines can
 * actually die?
 *
 * The analytic lifetime metric extrapolates mean wear; this demo
 * instead enables the fault model — lognormal per-line endurance
 * variation, write-verify with bounded retries, ECP-style repairs,
 * then retirement onto spare lines — and measures the time to the
 * first *uncorrectable* error under an all-fast baseline versus slow
 * and Mellow Writes policies. Slow writes wear cells by 1/9th
 * (Equation 2 with expoFactor 2, slowFactor 3), so they burn through
 * the weak-line tail much later: first faults, retirements and
 * capacity loss all shift right.
 *
 * Usage: fault_injection [instructions] [endurance_scale]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "fault/fault_model.hh"
#include "mellow/policy.hh"
#include "sim/types.hh"
#include "system/report.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workload/generators.hh"

using namespace mellowsim;

namespace
{

/** Dirty-eviction stress: a 3 MB random footprint against the 2 MB LLC. */
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

const char *
tickStr(Tick t, char *buf, std::size_t n)
{
    if (t == 0)
        std::snprintf(buf, n, "%10s", "never");
    else
        std::snprintf(buf, n, "%8.1fus",
                      static_cast<double>(t) / kMicrosecond);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    applyDeviceArgs(argc, argv);
    std::uint64_t instrs =
        argc > 1 ? parseCount(argv[1], "instructions") : 3'000'000ull;
    double scale = argc > 2 ? std::atof(argv[2]) : 2e-7;
    if (instrs == 0 || scale <= 0.0) {
        std::fprintf(stderr,
                     "usage: %s [instructions] [endurance_scale]\n",
                     argv[0]);
        return 1;
    }

    std::printf("Fault injection: time to first uncorrectable error\n"
                "(median line endurance %.2g wear units; a normal "
                "write costs 2e-7)\n\n",
                scale);

    const std::vector<WritePolicyConfig> pols = {
        policies::norm(),
        policies::slow(),
        policies::beMellow().withSC(),
    };

    std::printf("%-16s %10s %10s %8s %6s %6s %9s\n", "policy",
                "first_flt", "first_ue", "retired", "dead", "repair",
                "capacity");
    for (const WritePolicyConfig &p : pols) {
        SystemConfig cfg;
        applyDeviceSelection(cfg);
        cfg.policy = p;
        cfg.instructions = instrs;
        cfg.warmupInstructions = instrs / 6;
        cfg.memory.geometry.capacityBytes = 64ull * 1024 * 1024;
        cfg.memory.fault.enabled = true;
        cfg.memory.fault.enduranceScale = scale;
        cfg.memory.fault.repairEntriesPerLine = 1;
        cfg.memory.fault.spareLinesPerBank = 4;

        System sys(cfg, makeSynthetic(stressParams(), cfg.seed));
        SimReport r = sys.run();

        char b1[32], b2[32];
        std::printf("%-16s %s %s %8llu %6llu %6llu %8.4f%%\n",
                    r.policy.c_str(), tickStr(r.firstFaultTick, b1, 32),
                    tickStr(r.firstUncorrectableTick, b2, 32),
                    static_cast<unsigned long long>(r.retiredLines),
                    static_cast<unsigned long long>(r.deadLines),
                    static_cast<unsigned long long>(r.faultRepairsUsed),
                    100.0 * r.effectiveCapacityFraction);

        // Capacity-degradation timeline for the baseline: each entry
        // is one retirement or death event.
        if (&p == &pols.front()) {
            const FaultModel *fm = sys.controller().faultModel();
            const auto &trace = fm->capacityTrace();
            std::printf("  `- %zu capacity events; last 3:\n",
                        trace.size());
            std::size_t from =
                trace.size() > 3 ? trace.size() - 3 : 0;
            for (std::size_t i = from; i < trace.size(); ++i) {
                char b[32];
                std::printf("     %s  retired=%llu dead=%llu\n",
                            tickStr(trace[i].tick, b, 32),
                            static_cast<unsigned long long>(
                                trace[i].retiredLines),
                            static_cast<unsigned long long>(
                                trace[i].deadLines));
            }
        }
    }

    std::printf("\nSlow and Mellow policies reach the first "
                "uncorrectable error later (or never within the "
                "window): selective slow writes stretch the weak-line "
                "tail, not just the mean lifetime.\n");
    return 0;
}
