/**
 * @file
 * The useless-LRU-position profiler of Section IV-B1 (Figure 7).
 *
 * One hit counter per LRU stack position (shared across all sets) and
 * one miss counter. Every T_sample the profiler finds the *eager LRU
 * position*: the smallest position p such that the hits in positions
 * p..(assoc-1) sum to less than THRESHOLD_RATIO of all requests in
 * the period. Positions >= p are "useless" until the next sample:
 * dirty lines found there may be eagerly written back.
 *
 * Storage cost matches the paper's overhead analysis: assoc + 1
 * counters of ceil(log2(T_sample / T_clk)) bits plus a cycle counter
 * (360 bits total for a 16-way LLC).
 */

#ifndef MELLOWSIM_CACHE_EAGER_PROFILER_HH
#define MELLOWSIM_CACHE_EAGER_PROFILER_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace mellowsim
{

/** Profiler configuration (Table I defaults). */
struct EagerProfilerConfig
{
    unsigned assoc = 16;
    /** THRESHOLD_RATIO: 1/32 in the paper. */
    double thresholdRatio = 1.0 / 32.0;
    /** T_sample: 500,000 ns in the paper. */
    // mlint: allow(timing-literal): paper Table II constant, not a
    // device datasheet timing
    Tick samplePeriod = 500 * kMicrosecond;
};

/** See file comment. */
class EagerProfiler
{
  public:
    explicit EagerProfiler(const EagerProfilerConfig &config);

    /** Record an LLC hit at LRU stack position @p lruPos. */
    void notifyHit(unsigned lruPos);

    /** Record an LLC miss. */
    void notifyMiss();

    /**
     * Close the sample period: recompute the eager LRU position from
     * the counters, then reset them. Called every T_sample by the
     * owning LLC.
     */
    void onSamplePeriod();

    /**
     * First useless LRU position; positions >= this are eager-write
     * candidates. Equals assoc (nothing useless) until the first
     * period with traffic completes.
     */
    [[nodiscard]] unsigned uselessFrom() const { return _uselessFrom; }

    /** Counters for introspection/benches (current period). */
    [[nodiscard]] const std::vector<std::uint64_t> &hitCounters() const
    {
        return _hits;
    }
    [[nodiscard]] std::uint64_t missCounter() const { return _misses; }
    [[nodiscard]] std::uint64_t periods() const { return _periods; }

    [[nodiscard]] const EagerProfilerConfig &config() const { return _config; }

  private:
    EagerProfilerConfig _config;
    std::vector<std::uint64_t> _hits;
    std::uint64_t _misses = 0;
    unsigned _uselessFrom;
    std::uint64_t _periods = 0;
};

} // namespace mellowsim

#endif // MELLOWSIM_CACHE_EAGER_PROFILER_HH
