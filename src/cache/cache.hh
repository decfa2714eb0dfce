/**
 * @file
 * Set-associative write-back cache array with true-LRU stacks.
 *
 * The LRU stack position of every hit is exposed because the Eager
 * Mellow Writes profiler (Section IV-B1) counts hits per stack
 * position; position 0 is MRU, position (assoc-1) is LRU, matching
 * Figure 7 of the paper.
 *
 * Layout: every way lives in one contiguous array, set after set,
 * and stays where it was filled. Each set is a ring: a per-set head
 * names its MRU way, and way w sits at stack position
 * (w - head) mod assoc. A miss overwrites the way just before the
 * head (the LRU line, or an invalid way: invalid ways sit at the LRU
 * end) and makes it the head, so it moves no line. A hit at position
 * p moves only the p more recent lines. Next to the head, one 64-bit
 * word per set holds a dirty bit per way; rotated by the head it is
 * the dirty-position mask the eager scanner tests a set with in O(1).
 */

#ifndef MELLOWSIM_CACHE_CACHE_HH
#define MELLOWSIM_CACHE_CACHE_HH

#include <cstdint>
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

/** One cache line, as line() reports it. */
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
     * The line at stack position @p pos (0 is MRU) of set @p index.
     * Exposed for the decay selector's walk and for tests.
     */
    [[nodiscard]] CacheLine line(std::uint64_t index,
                                 unsigned pos) const;

    /**
     * Dirty-position mask of set @p index: bit p is set iff the line
     * at stack position p is valid and dirty.
     */
    [[nodiscard]] std::uint64_t
    dirtyMask(std::uint64_t index) const
    {
        const SetState &st = _sets[index];
        // The way word rotated right by head within assoc bits.
        if (st.head == 0)
            return st.dirty;
        return ((st.dirty >> st.head) |
                (st.dirty << (_config.assoc - st.head))) &
               _wayMask;
    }

    /** Count of valid dirty lines over the whole array (tests). */
    [[nodiscard]] std::uint64_t countDirtyLines() const;

    /** True iff a store re-dirtied an eagerly cleaned line. */
    [[nodiscard]] bool lastWriteWastedEager() const
    {
        return _lastWriteWastedEager;
    }

  private:
    /** Tag of an invalid way: not block aligned, so no block matches. */
    static constexpr LogicalAddr kInvalidTag{~Addr{0}};

    /** One way; its dirty bit lives in the set's SetState. */
    struct Way
    {
        LogicalAddr tag = kInvalidTag;
        std::uint32_t touchStamp = 0;
        bool eagerCleaned = false;
    };

    /** Per-set state: the dirty bit of every way and the MRU way. */
    struct SetState
    {
        /** Bit w: way w is valid and dirty. */
        std::uint64_t dirty = 0;
        unsigned head = 0;
    };

    [[nodiscard]] std::uint64_t setIndex(LogicalAddr addr) const;

    /** First way of set @p s in _ways. */
    [[nodiscard]] Way *
    ways(std::uint64_t s)
    {
        return _ways.data() + s * _config.assoc;
    }

    /** Way of set @p s holding @p block, or -1 if absent. */
    [[nodiscard]] int find(std::uint64_t s, LogicalAddr block) const;

    /** Stack position of way @p w in a set whose MRU way is @p head. */
    [[nodiscard]] unsigned
    position(unsigned head, unsigned w) const
    {
        return w >= head ? w - head : w + _config.assoc - head;
    }

    /** Move the line at position @p pos (way @p w) of set @p s to MRU. */
    void moveToMru(std::uint64_t s, unsigned w, unsigned pos);

    /**
     * Install @p block at MRU of set @p s in the LRU way, which
     * becomes the head. Returns the line it overwrote.
     */
    CacheVictim allocateMru(std::uint64_t s, LogicalAddr block, bool dirty,
                            std::uint32_t stamp);

    CacheConfig _config;
    std::uint64_t _numSets;
    /** The low assoc bits: every way of a set. */
    std::uint64_t _wayMask;
    /** numSets x assoc ways, set s at [s * assoc, (s + 1) * assoc). */
    std::vector<Way> _ways;
    /** Per-set dirty bits and heads. */
    std::vector<SetState> _sets;
    bool _lastWriteWastedEager = false;
};

} // namespace mellowsim

#endif // MELLOWSIM_CACHE_CACHE_HH
