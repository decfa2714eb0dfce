/**
 * @file
 * Set-associative write-back cache array with true-LRU stacks.
 *
 * The LRU stack position of every hit is exposed because the Eager
 * Mellow Writes profiler (Section IV-B1) counts hits per stack
 * position; position 0 is MRU, position (assoc-1) is LRU, matching
 * Figure 7 of the paper.
 *
 * Layout: every line lives in one contiguous array, set after set,
 * each set ordered MRU..LRU. Next to it one 64-bit dirty-position
 * mask per set (bit p: the line at stack position p is valid and
 * dirty) lets the eager scanner test a set in O(1) instead of walking
 * it; every mutator keeps the mask in step with the lines.
 */

#ifndef MELLOWSIM_CACHE_CACHE_HH
#define MELLOWSIM_CACHE_CACHE_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/strong_types.hh"
#include "sim/types.hh"

namespace mellowsim
{

/** Geometry and timing of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 2ull * 1024 * 1024;
    unsigned assoc = 16;
    /** Lookup/hit latency in ticks. */
    Tick hitLatency = 0;
};

/** One cache line. */
struct CacheLine
{
    LogicalAddr blockAddr{0}; ///< block-aligned address
    bool valid = false;
    bool dirty = false;
    /**
     * The line was cleaned by an eager mellow write back; a later
     * store re-dirtying it means that eager write was wasted.
     */
    bool eagerCleaned = false;
    /**
     * Owner-supplied recency stamp (the LLC stores its profiling
     * period number here); drives the decay-based dead-block
     * predictor used as an alternative eager-candidate selector.
     */
    std::uint32_t touchStamp = 0;
};

/** Result of a lookup. */
struct CacheAccessResult
{
    bool hit = false;
    /** LRU stack position of the hit (undefined on miss). */
    unsigned lruPos = 0;
};

/** Victim description returned by insert(). */
struct CacheVictim
{
    bool valid = false; ///< an occupied line was evicted
    bool dirty = false;
    LogicalAddr blockAddr{0};
};

/**
 * The cache array. Purely functional state (no timing); the
 * Hierarchy composes arrays into a timed three-level system.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &config);

    /**
     * Look up @p addr. On a hit the line moves to MRU and, if
     * @p isWrite, becomes dirty.
     *
     * @param updateLru  False for write backs arriving from an upper
     *                   level, which should not promote the line.
     * @param stamp      Recency stamp recorded on the line on a hit.
     */
    CacheAccessResult access(LogicalAddr addr, bool isWrite,
                             bool updateLru = true,
                             std::uint32_t stamp = 0);

    /** Non-destructive lookup (no LRU update, no dirtying). */
    [[nodiscard]] bool probe(LogicalAddr addr) const;

    /**
     * Allocate a line for @p addr at MRU (evicting LRU if the set is
     * full) and return the victim. @p addr must not be present.
     */
    CacheVictim insert(LogicalAddr addr, bool dirty,
                       std::uint32_t stamp = 0);

    /**
     * Warm-up touch in one pass over the set: on a hit the line moves
     * to MRU and, if @p dirty, becomes dirty; on a miss a line is
     * allocated at MRU and the victim is dropped. Leaves the line in
     * the state access(addr, dirty) then insert(addr, dirty) would.
     */
    void prime(LogicalAddr addr, bool dirty);

    /**
     * Mark the line holding @p addr clean and remember it was eagerly
     * cleaned. No-op if absent.
     * @retval true the line was present and dirty.
     */
    bool cleanLineForEagerWrite(LogicalAddr addr);

    /** Number of sets. */
    [[nodiscard]] std::uint64_t numSets() const { return _numSets; }
    [[nodiscard]] unsigned assoc() const { return _config.assoc; }
    [[nodiscard]] Tick hitLatency() const
    {
        return _config.hitLatency;
    }
    [[nodiscard]] const CacheConfig &config() const { return _config; }

    /**
     * Lines of one set ordered by recency: index 0 is MRU. Exposed
     * for the decay selector's walk and for tests.
     */
    [[nodiscard]] std::span<const CacheLine>
    set(std::uint64_t index) const;

    /**
     * Dirty-position mask of set @p index: bit p is set iff the line
     * at stack position p is valid and dirty.
     */
    [[nodiscard]] std::uint64_t
    dirtyMask(std::uint64_t index) const
    {
        return _dirty[index];
    }

    /** Count of valid dirty lines over the whole array (tests). */
    [[nodiscard]] std::uint64_t countDirtyLines() const;

    /** True iff a store re-dirtied an eagerly cleaned line. */
    [[nodiscard]] bool lastWriteWastedEager() const
    {
        return _lastWriteWastedEager;
    }

  private:
    [[nodiscard]] std::uint64_t setIndex(LogicalAddr addr) const;

    /** First line of set @p s in _lines. */
    [[nodiscard]] CacheLine *
    lines(std::uint64_t s)
    {
        return _lines.data() + s * _config.assoc;
    }

    /** Stack position of @p block in set @p s, or -1 if absent. */
    [[nodiscard]] int find(std::uint64_t s, LogicalAddr block) const;

    /** Move the line at @p pos of set @p s to MRU. */
    void moveToMru(std::uint64_t s, unsigned pos);

    /**
     * Shift set @p s down one position, dropping its LRU line, and
     * install @p block at MRU. Returns the dropped line.
     */
    CacheLine allocateMru(std::uint64_t s, LogicalAddr block, bool dirty,
                          std::uint32_t stamp);

    CacheConfig _config;
    std::uint64_t _numSets;
    /**
     * numSets x assoc lines, set s at [s * assoc, (s + 1) * assoc),
     * each set ordered MRU..LRU. Invalid lines sit at the tail.
     */
    std::vector<CacheLine> _lines;
    /** Per-set dirty-position masks (see dirtyMask()). */
    std::vector<std::uint64_t> _dirty;
    bool _lastWriteWastedEager = false;
};

} // namespace mellowsim

#endif // MELLOWSIM_CACHE_CACHE_HH
