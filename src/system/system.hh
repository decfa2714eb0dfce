/**
 * @file
 * Full-system assembly: workload -> core -> cache hierarchy ->
 * resistive memory controller, per Tables I and II.
 *
 * This is the library's primary entry point:
 *
 *     SystemConfig cfg;
 *     cfg.workloadName = "stream";
 *     cfg.policy = policies::beMellow().withSC().withWQ();
 *     System sys(cfg);
 *     SimReport r = sys.run();
 */

#ifndef MELLOWSIM_SYSTEM_SYSTEM_HH
#define MELLOWSIM_SYSTEM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>

#include "cache/hierarchy.hh"
#include "check/check_config.hh"
#include "cpu/core.hh"
#include "mellow/policy.hh"
#include "nvm/memory_system.hh"
#include "sim/event_queue.hh"
#include "system/report.hh"
#include "workload/workload.hh"

namespace mellowsim
{

class InvariantRegistry;

/** Complete configuration of one simulation. */
struct SystemConfig
{
    /** One of workloadNames(), or empty when `workload` is supplied. */
    std::string workloadName = "stream";

    /** Write policy under test (Table III). */
    WritePolicyConfig policy;

    /** Detailed-simulation length in instructions. */
    std::uint64_t instructions = 20'000'000;

    /**
     * Warm-up instructions: the cache arrays are primed functionally
     * (no timing, no memory traffic, no statistics) from the front of
     * the workload stream before detailed simulation begins —
     * mirroring the paper's warm-up + detailed-simulation split.
     */
    std::uint64_t warmupInstructions = 5'000'000;

    std::uint64_t seed = 1;

    CoreConfig core;
    HierarchyConfig hierarchy;
    MemControllerConfig memory;
    /** Memory channels; 1 matches the paper's evaluation. */
    unsigned numChannels = 1;

    /** Hard wall on simulated time (safety against pathology). */
    // mlint: allow(timing-literal): simulation safety wall, not a
    // device timing
    Tick maxSimTicks = 10 * kSecond;

    /** Runtime invariant auditing (src/check/); off by default. */
    CheckConfig checks;

    /**
     * Reported lifetimes are capped here (a workload that wrote
     * almost nothing has a mathematically infinite lifetime, which
     * would poison normalisations and geometric means downstream).
     */
    double maxReportedLifetimeYears = 1000.0;
};

/**
 * Owns every component of one simulated machine and runs it to
 * completion.
 */
class System
{
  public:
    /** Build a system over a named synthetic workload. */
    explicit System(const SystemConfig &config);

    /** Build a system over a caller-provided workload. */
    System(const SystemConfig &config, WorkloadPtr workload);

    ~System();
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run to the configured instruction count and report. */
    SimReport run();

    // Component access for examples/tests that want to inspect state.
    [[nodiscard]] EventQueue &eventQueue() { return _eventq; }
    [[nodiscard]] MemorySystem &memory() { return *_memory; }
    /** Channel 0's controller (the only one in the paper's setup). */
    [[nodiscard]] MemoryController &controller()
    {
        return _memory->channel(ChannelId(0));
    }
    [[nodiscard]] Hierarchy &hierarchy() { return *_hierarchy; }
    [[nodiscard]] TraceCore &core() { return *_core; }
    [[nodiscard]] Workload &workload() { return *_workload; }
    [[nodiscard]] const SystemConfig &config() const { return _config; }

    /**
     * The invariant-checker registry, or nullptr unless
     * config().checks.enabled.
     */
    [[nodiscard]] const InvariantRegistry *invariantChecks() const
    {
        return _checks.get();
    }

  private:
    void build();

    SystemConfig _config;
    EventQueue _eventq;
    WorkloadPtr _workload;
    std::unique_ptr<MemorySystem> _memory;
    std::unique_ptr<Hierarchy> _hierarchy;
    std::unique_ptr<TraceCore> _core;
    std::unique_ptr<InvariantRegistry> _checks;
    bool _ran = false;
};

/** Convenience: configure + run in one call. */
SimReport runSystem(const SystemConfig &config);

} // namespace mellowsim

#endif // MELLOWSIM_SYSTEM_SYSTEM_HH
