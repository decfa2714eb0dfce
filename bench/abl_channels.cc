/**
 * @file
 * Extension bench: channel-count sweep (1/2/4/16/32/64 channels).
 *
 * The paper evaluates a single channel but sizes the eager queue per
 * channel (Section IV-E). More channels multiply bus bandwidth, bank
 * count and eager-queue capacity; like the Figure 18 bank sweep, this
 * shows how Mellow Writes' benefit scales with the parallelism
 * available to hide slow writes in. Each simulation is one
 * single-threaded System however many channels it models; the grid
 * cells run in parallel across MELLOWSIM_JOBS workers.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace mellowsim;
using namespace mellowsim::policies;
using namespace benchutil;

int
main(int argc, char **argv)
{
    benchutil::applyBenchArgs(argc, argv);
    banner("abl_channels",
           "Channel sweep 1/2/4/16/32/64 under Norm and BE-Mellow+SC",
           "per-channel eager queues (Section IV-E); parallelism "
           "feeds the mellow schemes");

    const std::vector<std::string> wl = {"stream", "lbm", "milc",
                                         "gups"};
    std::printf("%-9s %-14s %-10s %8s %9s %10s %10s\n", "channels",
                "policy", "workload", "ipc", "life_yrs", "bank_util",
                "eager");
    for (unsigned channels : {1u, 2u, 4u, 16u, 32u, 64u}) {
        auto reports =
            runGrid(wl, {norm(), beMellow().withSC()},
                    [channels](SystemConfig &cfg) {
                        cfg.numChannels = channels;
                    });
        for (const SimReport &r : reports) {
            std::printf("%-9u %-14s %-10s %8.3f %9.2f %10.3f %10llu\n",
                        channels, r.policy.c_str(), r.workload.c_str(),
                        r.ipc, r.lifetimeYears, r.avgBankUtilization,
                        static_cast<unsigned long long>(
                            r.issuedEagerSlow));
        }
        double gain = 1.0;
        {
            std::vector<double> gains;
            for (const std::string &w : wl) {
                gains.push_back(
                    findReport(reports, w, "BE-Mellow+SC")
                        .lifetimeYears /
                    findReport(reports, w, "Norm").lifetimeYears);
            }
            gain = stats::geoMean(gains);
        }
        std::printf("  -> lifetime gain (geomean) at %u channels: "
                    "%.2fx\n",
                    channels, gain);
    }
    return 0;
}
