/**
 * @file
 * Shared declarations of the repository benchmark (perfbench/).
 *
 * main.cc owns the workloads, the untraced end-to-end pass and the
 * result line; traced.cc owns the traced per-layer pass: a
 * benchmark-owned machine assembled from the library's public
 * constructors exactly as System::build assembles one, wrapped at the
 * two virtual seams (Workload::next, MemoryPort), plus isolated drives
 * of the cache and nvm layers. Nothing under src/ is instrumented.
 */

#ifndef MELLOWSIM_PERFBENCH_PERFBENCH_HH
#define MELLOWSIM_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "system/system.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One named metric of the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Per-layer tallies summed over every configuration of a workload
 * set. Ratios are formed once, from the pooled sums (layerMetrics).
 */
struct LayerTotals
{
    std::uint64_t sims = 0;

    // sim: the event kernel, counted around EventQueue::step().
    std::uint64_t events = 0;
    std::uint64_t scanEvents = 0;
    std::uint64_t peakPending = 0;
    std::uint64_t allocs = 0;
    double detailedSeconds = 0.0;

    // workload: Workload::next() seam plus the generation drive.
    std::uint64_t ops = 0;
    std::uint64_t driveOps = 0;
    double driveOpSeconds = 0.0;

    // cpu (simulated counts).
    std::uint64_t instructions = 0;
    double cycles = 0.0;
    std::uint64_t robStalls = 0;
    std::uint64_t mshrStalls = 0;
    std::uint64_t depStalls = 0;

    // cache (simulated counts) and the cache drive.
    std::uint64_t accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t mshrMerges = 0;
    std::uint64_t blocked = 0;
    std::uint64_t eagerScans = 0;
    std::uint64_t eagerSent = 0;
    std::uint64_t eagerWasted = 0;
    std::uint64_t eagerCalls = 0;
    std::uint64_t driveAccesses = 0;
    double driveAccessSeconds = 0.0;
    std::uint64_t primeOps = 0;
    double primeSeconds = 0.0;

    // nvm: MemoryPort seam, controller counters and the nvm drive.
    std::uint64_t portCalls = 0;
    double portSeconds = 0.0;
    std::uint64_t portReads = 0;
    std::uint64_t portWritebacks = 0;
    std::uint64_t eagerAccepted = 0;
    std::uint64_t demandReads = 0;
    std::uint64_t forwardedReads = 0;
    std::uint64_t rowHitReads = 0;
    std::uint64_t bankReads = 0;
    double readLatencyTicks = 0.0;
    std::uint64_t readLatencySamples = 0;
    double bankUtilSum = 0.0;
    double drainFracSum = 0.0;
    std::uint64_t writeAttempts = 0;
    std::uint64_t completedWrites = 0;
    std::uint64_t driveRequests = 0;
    std::uint64_t driveEvents = 0;
    double driveRequestSeconds = 0.0;

    // mellow / wear (simulated).
    std::uint64_t slowWrites = 0;
    std::uint64_t quotaSlowOnlyPeriods = 0;
    double logLifetimeSum = 0.0;

    // system: host seconds of the untraced and traced runs.
    double warmupSeconds = 0.0;
    double untracedSeconds = 0.0;
    double untracedSecondsMax = 0.0;
    double tracedSeconds = 0.0;
};

/**
 * Trace one configuration: run it untraced through System::run, then
 * on the benchmark-owned traced machine, and require the two to agree
 * exactly on finishTick, instructions and every core, hierarchy, LLC
 * and controller counter. Then drive the cache and nvm layers in
 * isolation with the streams the traced run recorded, and fold every
 * tally into @p totals.
 *
 * @return "" on an exact match, else a description of the first
 *         mismatching field.
 */
std::string traceConfig(const mellowsim::SystemConfig &cfg,
                        LayerTotals &totals);

/**
 * The per-layer metrics of a traced workload set. @p workerBusyFrac is
 * system.worker_busy_frac, measured by the caller on an untraced run
 * of the whole set. sim.allocs_per_memreq is left out when the
 * allocation counter is compiled out.
 */
std::vector<Metric> layerMetrics(const LayerTotals &totals,
                                 double workerBusyFrac);

} // namespace perfbench

#endif // MELLOWSIM_PERFBENCH_PERFBENCH_HH
