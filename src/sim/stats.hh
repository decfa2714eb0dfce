/**
 * @file
 * Lightweight statistics primitives.
 *
 * Components expose their statistics as plain members of these types;
 * the System gathers them into a SimReport at the end of a run. The
 * types deliberately stay simple (no global registry) so that unit
 * tests can instantiate components in isolation.
 */

#ifndef MELLOWSIM_SIM_STATS_HH
#define MELLOWSIM_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace mellowsim
{
namespace stats
{

/**
 * Monotonically increasing event count.
 *
 * Like every stats primitive here, a Counter belongs to one System,
 * and a System runs on exactly one sweep worker (DESIGN.md §11), so
 * the types stay lock-free and the hot path stays a plain increment.
 */
class Counter
{
  public:
    void operator++() { ++_value; }
    void operator++(int) { ++_value; }
    void operator+=(std::uint64_t v) { _value += v; }
    [[nodiscard]] std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/** Running mean / min / max of a sampled quantity. */
class Average
{
  public:
    void
    sample(double v)
    {
        _sum += v;
        ++_count;
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }

    [[nodiscard]] double mean() const { return _count ? _sum / _count : 0.0; }
    [[nodiscard]] double sum() const { return _sum; }
    [[nodiscard]] std::uint64_t count() const { return _count; }
    [[nodiscard]] double min() const { return _count ? _min : 0.0; }
    [[nodiscard]] double max() const { return _count ? _max : 0.0; }

    void
    reset()
    {
        _sum = 0.0;
        _count = 0;
        _min = std::numeric_limits<double>::infinity();
        _max = -std::numeric_limits<double>::infinity();
    }

  private:
    double _sum = 0.0;
    std::uint64_t _count = 0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/**
 * Accumulates how long a boolean condition was true ("busy") over
 * simulated time; used for bank utilisation and drain-time fractions.
 *
 * Overlapping busy intervals are merged by construction: callers mark
 * busy-until using markBusyUntil(), which extends the current interval.
 */
class BusyTracker
{
  public:
    /** Declare the resource busy from @p from until @p until. */
    void
    markBusyUntil(Tick from, Tick until)
    {
        if (until <= from)
            return;
        if (from >= _busyUntil) {
            // Disjoint new interval.
            _busyTicks += until - from;
            _busyUntil = until;
        } else if (until > _busyUntil) {
            // Extends the current interval.
            _busyTicks += until - _busyUntil;
            _busyUntil = until;
        }
        // Else fully contained: nothing to add.
    }

    /**
     * Truncate accounting at @p now: any accrued busy time beyond the
     * current tick (e.g. an in-flight write when the simulation ends,
     * or a cancelled write) is given back.
     */
    void
    truncateAt(Tick now)
    {
        if (_busyUntil > now) {
            _busyTicks -= _busyUntil - now;
            _busyUntil = now;
        }
    }

    [[nodiscard]] Tick busyTicks() const { return _busyTicks; }

    /** Fraction of [0, total] the resource was busy. */
    [[nodiscard]] double
    utilization(Tick total) const
    {
        return total ? static_cast<double>(std::min(_busyTicks, total)) /
                           static_cast<double>(total)
                     : 0.0;
    }

    [[nodiscard]] Tick busyUntil() const { return _busyUntil; }

  private:
    Tick _busyTicks = 0;
    Tick _busyUntil = 0;
};

/** Fixed-bucket histogram over a [0, max) range. */
class Histogram
{
  public:
    Histogram(double max, unsigned buckets)
        : _max(max), _counts(buckets, 0)
    {
    }

    void
    sample(double v)
    {
        ++_total;
        if (v < 0.0)
            v = 0.0;
        auto idx = static_cast<std::size_t>(
            v / _max * static_cast<double>(_counts.size()));
        if (idx >= _counts.size())
            idx = _counts.size() - 1;
        ++_counts[idx];
    }

    [[nodiscard]] std::uint64_t total() const { return _total; }
    [[nodiscard]] const std::vector<std::uint64_t> &buckets() const { return _counts; }
    [[nodiscard]] double max() const { return _max; }

  private:
    double _max;
    std::uint64_t _total = 0;
    std::vector<std::uint64_t> _counts;
};

/** Geometric mean of a set of strictly positive values. */
double geoMean(const std::vector<double> &values);

} // namespace stats
} // namespace mellowsim

#endif // MELLOWSIM_SIM_STATS_HH
