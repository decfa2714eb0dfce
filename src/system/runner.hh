/**
 * @file
 * Experiment sweep helpers shared by the bench harness and examples:
 * building configurations for (workload x policy x geometry) grids,
 * normalising metrics against a baseline policy, and geometric means.
 */

#ifndef MELLOWSIM_SYSTEM_RUNNER_HH
#define MELLOWSIM_SYSTEM_RUNNER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "mellow/policy.hh"
#include "system/report.hh"
#include "system/system.hh"

namespace mellowsim
{

/**
 * Parse a decimal count from an environment variable or command line
 * argument, named @p what in the error. A sign, trailing characters
 * or a value past 2^64 - 1 is fatal; strtoull alone would wrap "-1"
 * to 2^64 - 1. Zero is accepted; callers that need a positive count
 * check for it.
 */
std::uint64_t parseCount(const char *text, const char *what);

/**
 * Default configuration for a (workload, policy) pair, honouring the
 * MELLOWSIM_INSTRS and MELLOWSIM_WARMUP environment variables so the
 * whole bench suite can be scaled up or down without recompiling.
 *
 * When a device is selected — setDeviceOverride() first, else the
 * MELLOWSIM_DEVICE environment variable — the memory controller
 * configuration and channel count are bound from that device file
 * (configs/<name>.config, see src/config/device_config.hh) instead of
 * the compiled-in defaults. The defaults are byte-identical to
 * configs/reram_paper.config, so leaving the device unset and
 * selecting reram_paper are the same machine.
 */
SystemConfig makeConfig(const std::string &workload,
                        const WritePolicyConfig &policy);

/**
 * Select the device config bound by every subsequent makeConfig():
 * a bare name from configs/ ("reram_isscc2012") or a path to a
 * .config file. Takes precedence over MELLOWSIM_DEVICE; "" clears the
 * override. Call before starting a sweep, not concurrently with one.
 */
void setDeviceOverride(const std::string &nameOrPath);

/**
 * The device selection makeConfig() is currently honouring (override,
 * else MELLOWSIM_DEVICE), or "" when the compiled-in defaults (the
 * reram_paper point) are in effect.
 */
std::string activeDeviceName();

/**
 * Bind the active device selection (if any) into an already-built
 * configuration: cfg.memory and cfg.numChannels are replaced from the
 * device file; everything else is untouched. No-op when no device is
 * selected. makeConfig() calls this automatically — use it directly
 * when constructing a SystemConfig by hand (apply before any manual
 * cfg.memory tweaks, which should win over the datasheet).
 */
void applyDeviceSelection(SystemConfig &cfg);

/**
 * Consume the shared device flags from a command line, compacting
 * argv so positional arguments keep their place:
 *
 *   --device <name|path> | --device=<name|path>   setDeviceOverride()
 *   --list-devices                                print configs/, exit
 *
 * Unrecognised arguments are left for the caller.
 */
void applyDeviceArgs(int &argc, char **argv);

/** Run one (workload, policy) pair with the default configuration. */
SimReport runOne(const std::string &workload,
                 const WritePolicyConfig &policy);

/**
 * Run a full (workloads x policies) grid, invoking @p tweak (if set)
 * on each configuration before running. Results are ordered policy-
 * major to match the paper's figure legends.
 *
 * Runs execute in parallel across MELLOWSIM_JOBS worker threads
 * (default: hardware concurrency); every simulation is an isolated
 * System, so results are bit-identical to a serial sweep.
 */
std::vector<SimReport>
runGrid(const std::vector<std::string> &workloads,
        const std::vector<WritePolicyConfig> &policies,
        const std::function<void(SystemConfig &)> &tweak = nullptr);

/**
 * Run an arbitrary list of prepared configurations in parallel across
 * MELLOWSIM_JOBS worker threads (default: hardware concurrency).
 *
 * A worker-thread exception is rethrown after the sweep drains, and
 * when several configurations fail the one with the lowest sweep
 * index wins — the same error a serial sweep would report, regardless
 * of thread arrival order.
 */
std::vector<SimReport> runConfigs(std::vector<SystemConfig> configs);

/** As above with an explicit worker count (ignores MELLOWSIM_JOBS);
 * used by tools/determinism_check --threads. */
std::vector<SimReport> runConfigs(std::vector<SystemConfig> configs,
                                  unsigned jobs);

/** Look up the report for (workload, policy) in a result set. */
const SimReport &findReport(const std::vector<SimReport> &reports,
                            const std::string &workload,
                            const std::string &policy);

/**
 * metric(workload, policy) / metric(workload, baseline) for every
 * workload, in workload order.
 */
std::vector<double>
normalizedMetric(const std::vector<SimReport> &reports,
                 const std::vector<std::string> &workloads,
                 const std::string &policy, const std::string &baseline,
                 const std::function<double(const SimReport &)> &metric);

/** Geometric mean of a metric ratio vs baseline across workloads. */
double geoMeanNormalized(
    const std::vector<SimReport> &reports,
    const std::vector<std::string> &workloads, const std::string &policy,
    const std::string &baseline,
    const std::function<double(const SimReport &)> &metric);

} // namespace mellowsim

#endif // MELLOWSIM_SYSTEM_RUNNER_HH
