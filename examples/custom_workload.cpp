/**
 * @file
 * Using the library with your own workload: build a SyntheticWorkload
 * from explicit parameters (or implement the Workload interface
 * outright) and hand it to a System.
 *
 * The example models a log-structured storage engine: a large
 * sequential append stream (write-heavy, never re-read soon), a hot
 * index that fits in the cache hierarchy, and periodic random
 * compaction reads — then asks whether Mellow Writes helps it.
 *
 * Usage: custom_workload [instructions]
 */

#include <cstdio>

#include "mellow/policy.hh"
#include "system/report.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workload/generators.hh"

using namespace mellowsim;

namespace
{

/**
 * A composite workload built from two SyntheticWorkload phases:
 * mostly log appends, interleaved with bursts of compaction reads.
 */
class LogStructuredWorkload : public Workload
{
  public:
    explicit LogStructuredWorkload(std::uint64_t seed)
    {
        WorkloadParams append;
        append.name = "log-append";
        append.pattern = AccessPattern::Sequential;
        append.numStreams = 1;
        append.footprintBytes = 256ull * 1024 * 1024;
        append.writeFraction = 0.85; // appends are stores
        append.coldFraction = 0.8;   // hot index absorbs the rest
        append.hotBytes = 512 * 1024;
        append.meanGap = 60.0;
        _append = makeSynthetic(append, seed);

        WorkloadParams compact;
        compact.name = "compaction";
        compact.pattern = AccessPattern::Random;
        compact.footprintBytes = 256ull * 1024 * 1024;
        compact.writeFraction = 0.1;
        compact.meanGap = 40.0;
        _compact = makeSynthetic(compact, seed ^ 0xBEEF);

        _info.name = "log-structured";
    }

    Op
    next() override
    {
        // 1 compaction burst of 64 ops every 1024 appends.
        if (_phase < 1024) {
            ++_phase;
            return _append->next();
        }
        if (_phase < 1024 + 64) {
            ++_phase;
            return _compact->next();
        }
        _phase = 0;
        return _append->next();
    }

    const WorkloadInfo &info() const override { return _info; }

  private:
    WorkloadPtr _append;
    WorkloadPtr _compact;
    WorkloadInfo _info;
    unsigned _phase = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    applyDeviceArgs(argc, argv);
    std::uint64_t instrs =
        argc > 1 ? parseCount(argv[1], "instructions") : 12'000'000ull;

    std::printf("Custom workload: log-structured storage engine\n\n");

    std::vector<SimReport> reports;
    for (const WritePolicyConfig &policy :
         {policies::norm(), policies::beMellow().withSC(),
          policies::beMellow().withSC().withWQ()}) {
        SystemConfig cfg;
        applyDeviceSelection(cfg);
        cfg.policy = policy;
        cfg.instructions = instrs;
        // A caller-provided workload replaces the named ones.
        System sys(cfg,
                   std::make_unique<LogStructuredWorkload>(cfg.seed));
        reports.push_back(sys.run());
    }

    std::printf("%s\n",
                reportsToTable(reports, {"workload", "policy", "ipc",
                                         "lifetime_years",
                                         "bank_utilization", "mpki"})
                    .c_str());

    const SimReport &n = reports[0];
    const SimReport &m = reports[1];
    std::printf("Mellow Writes on this engine: %.2fx IPC, %.2fx "
                "lifetime vs Norm\n",
                m.ipc / n.ipc, m.lifetimeYears / n.lifetimeYears);
    std::printf("(append streams are ideal eager candidates: written "
                "once, never re-dirtied)\n");
    return 0;
}
