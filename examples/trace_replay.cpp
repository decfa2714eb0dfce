/**
 * @file
 * Trace workflow: record a trace, replay it through the simulator.
 *
 * With your own memory traces (gem5, Pin, production sampling), write
 * them in the mellowsim text format and point this tool at the file.
 * Run without arguments to see the full round trip on a synthetic
 * recording.
 *
 * Usage:
 *   trace_replay                     # record + replay a demo trace
 *   trace_replay <trace-file> [policy] [instructions]
 */

#include <cstdio>
#include <string>

#include "mellow/policy.hh"
#include "system/report.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workload/trace_workload.hh"

using namespace mellowsim;

namespace
{

SimReport
replay(const std::string &path, const WritePolicyConfig &policy,
       std::uint64_t instrs)
{
    SystemConfig cfg;
    applyDeviceSelection(cfg);
    cfg.policy = policy;
    cfg.instructions = instrs;
    System sys(cfg, makeTraceWorkload(path));
    return sys.run();
}

} // namespace

int
main(int argc, char **argv)
{
    applyDeviceArgs(argc, argv);
    if (argc > 1) {
        std::string path = argv[1];
        WritePolicyConfig policy =
            argc > 2 ? policies::fromName(argv[2])
                     : policies::beMellow().withSC();
        std::uint64_t instrs = argc > 3
                                   ? parseCount(argv[3], "instructions")
                                   : 10'000'000ull;
        SimReport r = replay(path, policy, instrs);
        std::printf("%s\n",
                    reportsToTable({r}, {"workload", "policy", "ipc",
                                         "lifetime_years",
                                         "bank_utilization", "mpki"})
                        .c_str());
        return 0;
    }

    // Demo: record 200k operations of milc, then replay the trace
    // under two policies.
    const std::string path = "/tmp/mellowsim_demo.trace";
    std::printf("Recording 200000 milc operations to %s ...\n",
                path.c_str());
    WorkloadPtr source = makeWorkload("milc", 7);
    writeTrace(path, *source, 200'000);

    std::vector<SimReport> reports;
    for (const WritePolicyConfig &policy :
         {policies::norm(), policies::beMellow().withSC()}) {
        reports.push_back(replay(path, policy, 8'000'000));
    }
    std::printf("\n%s\n",
                reportsToTable(reports, {"workload", "policy", "ipc",
                                         "lifetime_years",
                                         "bank_utilization", "mpki"})
                    .c_str());
    std::printf("(the replayed trace cycles; lifetimes follow the "
                "paper's cyclic-execution model)\n");
    return 0;
}
