#include "cache/cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace mellowsim
{

namespace
{

/** Mask of the @p n lowest bits, n <= 64. */
constexpr std::uint64_t
lowBits(unsigned n)
{
    return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

constexpr std::uint64_t
bit(unsigned pos)
{
    return std::uint64_t{1} << pos;
}

} // namespace

SetAssocCache::SetAssocCache(const CacheConfig &config) : _config(config)
{
    fatal_if(config.assoc == 0, "%s: associativity must be >= 1",
             config.name.c_str());
    fatal_if(config.assoc > 64,
             "%s: associativity %u exceeds the 64 ways of the "
             "dirty-position mask",
             config.name.c_str(), config.assoc);
    fatal_if(config.sizeBytes % (config.assoc * kBlockSize) != 0,
             "%s: size must be a multiple of assoc * block size",
             config.name.c_str());
    _numSets = config.sizeBytes / (config.assoc * kBlockSize);
    fatal_if(!isPowerOfTwo(_numSets),
             "%s: number of sets (%llu) must be a power of two",
             config.name.c_str(),
             static_cast<unsigned long long>(_numSets));
    _wayMask = lowBits(config.assoc);
    _ways.assign(_numSets * config.assoc, Way{});
    _sets.assign(_numSets, SetState{});
}

std::uint64_t
SetAssocCache::setIndex(LogicalAddr addr) const
{
    return blockNumber(addr) & (_numSets - 1);
}

int
SetAssocCache::find(std::uint64_t s, LogicalAddr block) const
{
    const Way *set = _ways.data() + s * _config.assoc;
    for (unsigned w = 0; w < _config.assoc; ++w) {
        if (set[w].tag == block)
            return static_cast<int>(w);
    }
    return -1;
}

void
SetAssocCache::moveToMru(std::uint64_t s, unsigned w, unsigned pos)
{
    // Positions 0..pos-1 move down one; position pos becomes 0. Each
    // line steps one way up the ring, its dirty bit with it.
    Way *set = ways(s);
    SetState &st = _sets[s];
    const unsigned last = _config.assoc - 1;
    const Way moved = set[w];
    const std::uint64_t movedDirty = (st.dirty >> w) & 1;
    for (unsigned to = w; pos > 0; --pos) {
        const unsigned from = to == 0 ? last : to - 1;
        set[to] = set[from];
        st.dirty = (st.dirty & ~bit(to)) | (((st.dirty >> from) & 1) << to);
        to = from;
    }
    // Field by field: a whole-struct store of the padded copy would
    // go through the stack and stall the load that follows it.
    Way &mru = set[st.head];
    mru.tag = moved.tag;
    mru.touchStamp = moved.touchStamp;
    mru.eagerCleaned = moved.eagerCleaned;
    st.dirty = (st.dirty & ~bit(st.head)) | (movedDirty << st.head);
}

CacheVictim
SetAssocCache::allocateMru(std::uint64_t s, LogicalAddr block, bool dirty,
                           std::uint32_t stamp)
{
    SetState &st = _sets[s];
    const unsigned w = st.head == 0 ? _config.assoc - 1 : st.head - 1;
    Way &way = ways(s)[w];
    CacheVictim victim;
    if (way.tag != kInvalidTag) {
        victim.valid = true;
        victim.dirty = ((st.dirty >> w) & 1) != 0;
        victim.blockAddr = way.tag;
    }
    // Field by field, as in moveToMru.
    way.tag = block;
    way.touchStamp = stamp;
    way.eagerCleaned = false;
    st.dirty = (st.dirty & ~bit(w)) | (dirty ? bit(w) : 0);
    st.head = w;
    _empty = false;
    return victim;
}

CacheAccessResult
SetAssocCache::access(LogicalAddr addr, bool isWrite, bool updateLru,
                      std::uint32_t stamp)
{
    LogicalAddr block = blockAlign(addr);
    std::uint64_t s = setIndex(addr);
    _lastWriteWastedEager = false;
    _onlyPrimed = false;

    int found = find(s, block);
    if (found < 0)
        return {false, 0};
    auto w = static_cast<unsigned>(found);
    Way &way = ways(s)[w];
    way.touchStamp = stamp;
    if (isWrite) {
        if (way.eagerCleaned) {
            _lastWriteWastedEager = true;
            way.eagerCleaned = false;
        }
        _sets[s].dirty |= bit(w);
    }
    const unsigned pos = position(_sets[s].head, w);
    if (updateLru && pos != 0)
        moveToMru(s, w, pos);
    return {true, pos};
}

bool
SetAssocCache::probe(LogicalAddr addr) const
{
    return find(setIndex(addr), blockAlign(addr)) >= 0;
}

CacheVictim
SetAssocCache::insert(LogicalAddr addr, bool dirty, std::uint32_t stamp)
{
    panic_if(probe(addr), "%s: inserting a line already present",
             _config.name.c_str());
    _onlyPrimed = false;
    return allocateMru(setIndex(addr), blockAlign(addr), dirty, stamp);
}

CacheVictim
SetAssocCache::fill(LogicalAddr addr, bool dirty, std::uint32_t stamp)
{
    LogicalAddr block = blockAlign(addr);
    std::uint64_t s = setIndex(addr);
    _onlyPrimed = false;
    int found = find(s, block);
    if (found < 0)
        return allocateMru(s, block, dirty, stamp);
    if (dirty) {
        auto w = static_cast<unsigned>(found);
        ways(s)[w].eagerCleaned = false;
        _sets[s].dirty |= bit(w);
    }
    return {};
}

void
SetAssocCache::prime(LogicalAddr addr, bool dirty)
{
    LogicalAddr block = blockAlign(addr);
    std::uint64_t s = setIndex(addr);
    int found = find(s, block);
    if (found < 0) {
        // Victim dropped deliberately: warm-up only.
        (void)allocateMru(s, block, dirty, 0);
        return;
    }
    auto w = static_cast<unsigned>(found);
    Way &way = ways(s)[w];
    way.touchStamp = 0;
    if (dirty) {
        way.eagerCleaned = false;
        _sets[s].dirty |= bit(w);
    }
    const unsigned pos = position(_sets[s].head, w);
    if (pos != 0)
        moveToMru(s, w, pos);
}

namespace
{

/** Stack position of a block that is not a final line. */
constexpr std::uint8_t kNotFinal = 0xFF;

} // namespace

PrimeScratch::PrimeScratch(std::size_t capacity, std::uint64_t lines)
    : _capacity(capacity), _lines(lines),
      _memory(std::make_unique_for_overwrite<PrimeOp[]>(capacity +
                                                        2 * lines)),
      _stackPos(lines)
{
    // A level has at most one set per line.
    _walks.reserve(lines);
}

bool
SetAssocCache::walkStep(PrimeScratch &scratch, std::uint64_t s,
                        LogicalAddr block, bool write)
{
    const unsigned assoc = _config.assoc;
    PrimeScratch::SetWalk &walk = scratch._walks[s];
    PrimeOp *stack = scratch._memory.get() + scratch._capacity + s * assoc;
    std::uint8_t *stackPos = scratch._stackPos.data() + s * assoc;

    // The stack fills from its last slot down, so until it is full
    // its entries are slots [assoc - fill, assoc).
    for (unsigned w = assoc - walk.fill; w < assoc; ++w) {
        if (stack[w].block() != block)
            continue;
        // Fewer than assoc other blocks since the block's later
        // touch, so that touch hit: a final line's residency
        // includes this one.
        const std::uint8_t p = stackPos[w];
        if (write && p != kNotFinal)
            _sets[s].dirty |= bit(p);
        for (unsigned to = w, n = position(walk.head, w); n > 0; --n) {
            const unsigned from = to == 0 ? assoc - 1 : to - 1;
            stack[to] = stack[from];
            stackPos[to] = stackPos[from];
            to = from;
        }
        stack[walk.head] = PrimeOp(block, false);
        stackPos[walk.head] = p;
        return false;
    }

    // A new block goes on top. A full stack drops its bottom entry:
    // that block's later touch missed, so a final line dropping off
    // began its residency at its oldest touch walked: it is settled.
    // The stack is full only once assoc distinct blocks have been
    // met, so by then every final line is known.
    bool settled = false;
    unsigned top;
    if (walk.fill < assoc) {
        top = assoc - 1 - walk.fill;
        ++walk.fill;
    } else {
        top = walk.head == 0 ? assoc - 1 : walk.head - 1;
        if (stackPos[top] != kNotFinal)
            settled = --walk.live == 0;
    }
    walk.head = static_cast<std::uint8_t>(top);
    stack[top] = PrimeOp(block, false);
    if (walk.finals < assoc) {
        // One of the first assoc distinct blocks: final line p, in
        // way p under head 0.
        const unsigned p = walk.finals++;
        ways(s)[p].tag = block;
        if (write)
            _sets[s].dirty |= bit(p);
        stackPos[top] = static_cast<std::uint8_t>(p);
        ++walk.live;
        _empty = false;
    } else {
        stackPos[top] = kNotFinal;
    }
    return settled;
}

void
SetAssocCache::prime(std::span<const PrimeOp> ops, bool withStores,
                     PrimeScratch &scratch)
{
    const unsigned assoc = _config.assoc;
    const std::uint64_t lines = _numSets * assoc;
    // A set settles only after 2 * assoc ops (assoc final lines, then
    // assoc older blocks to push them off the stack), and a walk step
    // costs about what a forward prime does. So on a level that holds
    // lines, whose sets the walk must move aside and may have to walk
    // through again, it pays only where the average set gets several
    // times that many ops. An empty level has neither cost.
    if (!_onlyPrimed || lines > scratch._lines ||
        (!_empty && ops.size() < kWalkOpsPerLine * lines)) {
        for (const PrimeOp &op : ops)
            prime(op.block(), withStores && op.isWrite());
        return;
    }

    scratch._walks.assign(_numSets, PrimeScratch::SetWalk{});
    PrimeOp *saved =
        scratch._memory.get() + scratch._capacity + scratch._lines;
    auto settled = [&](std::uint64_t s) {
        const PrimeScratch::SetWalk &walk = scratch._walks[s];
        return walk.finals == assoc && walk.live == 0;
    };

    std::uint64_t settledSets = 0;
    for (auto op = ops.rbegin(); op != ops.rend(); ++op) {
        const LogicalAddr block = op->block();
        const std::uint64_t s = setIndex(block);
        PrimeScratch::SetWalk &walk = scratch._walks[s];
        if (walk.fill == 0) {
            // The set's first op of the batch. Move the lines it holds
            // aside, MRU first, and empty it: the final lines are
            // written in place as the walk finds them.
            SetState &st = _sets[s];
            Way *set = ways(s);
            for (unsigned p = 0; p < assoc; ++p) {
                unsigned w = st.head + p;
                if (w >= assoc)
                    w -= assoc;
                if (set[w].tag == kInvalidTag)
                    break;
                saved[s * assoc + p] =
                    PrimeOp(set[w].tag, ((st.dirty >> w) & 1) != 0);
                ++walk.saved;
            }
            for (unsigned w = 0; w < assoc; ++w)
                set[w] = Way{};
            st = SetState{};
        } else if (settled(s)) {
            continue;
        }
        if (walkStep(scratch, s, block, withStores && op->isWrite()) &&
            ++settledSets == _numSets) {
            break;
        }
    }

    // A set the batch touched but did not settle continues the walk
    // over the lines it held before, MRU first, as its oldest
    // touches: priming them in LRU-to-MRU order into an empty set
    // rebuilds the set exactly, since only prime() has written it
    // (stamps 0, no eager flags).
    for (std::uint64_t s = 0; s < _numSets; ++s) {
        const PrimeScratch::SetWalk &walk = scratch._walks[s];
        for (unsigned p = 0; p < walk.saved && !settled(s); ++p) {
            const PrimeOp line = saved[s * assoc + p];
            walkStep(scratch, s, line.block(), line.isWrite());
        }
    }
}

bool
SetAssocCache::cleanLineForEagerWrite(LogicalAddr addr)
{
    std::uint64_t s = setIndex(addr);
    int found = find(s, blockAlign(addr));
    if (found < 0)
        return false;
    auto w = static_cast<unsigned>(found);
    SetState &st = _sets[s];
    if ((st.dirty & bit(w)) == 0)
        return false;
    _onlyPrimed = false;
    st.dirty &= ~bit(w);
    ways(s)[w].eagerCleaned = true;
    return true;
}

CacheLine
SetAssocCache::line(std::uint64_t index, unsigned pos) const
{
    panic_if(index >= _numSets, "set index out of range");
    panic_if(pos >= _config.assoc, "stack position out of range");
    const SetState &st = _sets[index];
    unsigned w = st.head + pos;
    if (w >= _config.assoc)
        w -= _config.assoc;
    const Way &way = _ways[index * _config.assoc + w];
    if (way.tag == kInvalidTag)
        return CacheLine{};
    return CacheLine{.blockAddr = way.tag,
                     .valid = true,
                     .dirty = ((st.dirty >> w) & 1) != 0,
                     .eagerCleaned = way.eagerCleaned,
                     .touchStamp = way.touchStamp};
}

std::uint64_t
SetAssocCache::countDirtyLines() const
{
    std::uint64_t count = 0;
    for (const SetState &st : _sets)
        count += static_cast<std::uint64_t>(std::popcount(st.dirty));
    return count;
}

} // namespace mellowsim
