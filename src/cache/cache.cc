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
    return victim;
}

CacheAccessResult
SetAssocCache::access(LogicalAddr addr, bool isWrite, bool updateLru,
                      std::uint32_t stamp)
{
    LogicalAddr block = blockAlign(addr);
    std::uint64_t s = setIndex(addr);
    _lastWriteWastedEager = false;

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
    return allocateMru(setIndex(addr), blockAlign(addr), dirty, stamp);
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
