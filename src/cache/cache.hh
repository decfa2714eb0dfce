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
 *
 * A warm-up batch is primed backwards from its newest op where that
 * pays (DESIGN.md "Warm-up settled from its newest ops"): a set's
 * final lines are its A most recently touched blocks, so a set stops
 * taking work once older ops can no longer change them.
 */

#ifndef MELLOWSIM_CACHE_CACHE_HH
#define MELLOWSIM_CACHE_CACHE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/logging.hh"
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
 * One warm-up access packed in 8 bytes: the block address, with the
 * store flag in its lowest bit (always zero in a block address). The
 * default constructor leaves it unset, so a buffer of them can be
 * allocated without writing it.
 */
class PrimeOp
{
  public:
    PrimeOp() = default;
    PrimeOp(LogicalAddr addr, bool isWrite)
        // mlint: allow(value-escape): the packed form holds the block
        // address, which block() returns typed again.
        : _packed(blockAlign(addr).value() | Addr{isWrite})
    {
    }

    [[nodiscard]] LogicalAddr
    block() const
    {
        return LogicalAddr(_packed & ~Addr{1});
    }
    [[nodiscard]] bool isWrite() const { return (_packed & 1) != 0; }

  private:
    Addr _packed;
};

/**
 * The memory of one warm-up: a batch of packed ops and the state of
 * the backward walk over it (DESIGN.md "Warm-up settled from its
 * newest ops"). The ops and the walk's per-line entries are one
 * allocation, made once and written only where used; destroying the
 * scratch frees it.
 */
class PrimeScratch
{
  public:
    /**
     * Room for a batch of @p capacity ops and for walking a level of
     * at most @p lines lines.
     */
    PrimeScratch(std::size_t capacity, std::uint64_t lines);

    /** The ops pushed since the last clear(), oldest first. */
    [[nodiscard]] std::span<const PrimeOp>
    ops() const
    {
        return {_memory.get(), _size};
    }
    [[nodiscard]] bool full() const { return _size == _capacity; }
    void clear() { _size = 0; }

    /** Append one op; the batch must not be full. */
    void
    push(LogicalAddr addr, bool isWrite)
    {
        panic_if(full(), "prime batch overflow");
        _memory[_size++] = PrimeOp(addr, isWrite);
    }

  private:
    friend class SetAssocCache;

    /** Walk state of one set. */
    struct SetWalk
    {
        /** Stack slot of the most recently walked block. */
        std::uint8_t head = 0;
        /** Blocks on the reverse stack. */
        std::uint8_t fill = 0;
        /** Final lines found. */
        std::uint8_t finals = 0;
        /** Final lines still on the stack (not yet settled). */
        std::uint8_t live = 0;
        /** Lines the set held before the batch, moved aside. */
        std::uint8_t saved = 0;
    };

    std::size_t _capacity;
    std::uint64_t _lines;
    std::size_t _size = 0;
    /**
     * The batch (capacity ops), then per line of the walked level a
     * stack entry (each set's reverse LRU stack, a ring like the
     * array's sets), then per line a saved line (the lines a set held
     * before the batch, MRU first, as touches with the dirty bit for
     * the store flag).
     */
    std::unique_ptr<PrimeOp[]> _memory;
    /** Final-line position of each stack entry, or kNotFinal. */
    std::vector<std::uint8_t> _stackPos;
    std::vector<SetWalk> _walks;
};

/**
 * The cache array. Purely functional state (no timing); the
 * Hierarchy composes arrays into a timed three-level system.
 */
class SetAssocCache
{
  public:
    /**
     * Batch ops per line (3x the 2 per line a set needs to settle)
     * below which the batch prime primes a level that holds lines
     * forward (DESIGN.md "Warm-up settled from its newest ops").
     */
    static constexpr std::uint64_t kWalkOpsPerLine = 6;

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
     * Install @p addr at MRU and return the victim, as insert() does,
     * unless it is already present: then a dirty fill dirties the
     * line, nothing else changes (no LRU update, no stamp) and no
     * victim is returned. Searches the set once.
     */
    CacheVictim fill(LogicalAddr addr, bool dirty, std::uint32_t stamp = 0);

    /**
     * Warm-up touch in one pass over the set: on a hit the line moves
     * to MRU and, if @p dirty, becomes dirty; on a miss a line is
     * allocated at MRU and the victim is dropped. Leaves the line in
     * the state access(addr, dirty) then insert(addr, dirty) would.
     */
    void prime(LogicalAddr addr, bool dirty);

    /**
     * Prime every op of @p ops in stream order, a store dirtying its
     * line only if @p withStores. Leaves the array exactly as the
     * one-op prime() over the ops would. Walks the batch backwards
     * from its newest op and stops once every set is settled
     * (DESIGN.md "Warm-up settled from its newest ops"); primes op by
     * op instead when the array holds lines and the batch is too short
     * for the walk to pay, once a call other than prime() has touched
     * the array, or when @p scratch has room for fewer lines.
     */
    void prime(std::span<const PrimeOp> ops, bool withStores,
               PrimeScratch &scratch);

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

    /**
     * One step of the backward walk: set @p s meets the next older
     * touch of @p block, a store iff @p write. Final lines go straight
     * into their ways. @retval true the step settled the set.
     */
    bool walkStep(PrimeScratch &scratch, std::uint64_t s,
                  LogicalAddr block, bool write);

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
    /**
     * Only prime() has changed the array, so every line carries stamp
     * 0 and no eager flag: the batch prime's backward walk relies on
     * it.
     */
    bool _onlyPrimed = true;
    /** No line has been installed yet. */
    bool _empty = true;
};

} // namespace mellowsim

#endif // MELLOWSIM_CACHE_CACHE_HH
