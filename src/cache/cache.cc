#include "cache/cache.hh"

#include <algorithm>

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
    _lines.assign(_numSets * config.assoc, CacheLine{});
    _dirty.assign(_numSets, 0);
}

std::uint64_t
SetAssocCache::setIndex(LogicalAddr addr) const
{
    return blockNumber(addr) & (_numSets - 1);
}

int
SetAssocCache::find(std::uint64_t s, LogicalAddr block) const
{
    const CacheLine *set = _lines.data() + s * _config.assoc;
    for (unsigned pos = 0; pos < _config.assoc; ++pos) {
        if (set[pos].valid && set[pos].blockAddr == block)
            return static_cast<int>(pos);
    }
    return -1;
}

void
SetAssocCache::moveToMru(std::uint64_t s, unsigned pos)
{
    CacheLine *set = lines(s);
    std::rotate(set, set + pos, set + pos + 1);
    // Positions 0..pos-1 move down one; position pos becomes 0.
    std::uint64_t m = _dirty[s];
    _dirty[s] = (m & ~lowBits(pos + 1)) | ((m & lowBits(pos)) << 1) |
                ((m >> pos) & 1);
}

CacheLine
SetAssocCache::allocateMru(std::uint64_t s, LogicalAddr block, bool dirty,
                           std::uint32_t stamp)
{
    CacheLine *set = lines(s);
    const unsigned assoc = _config.assoc;
    CacheLine victim = set[assoc - 1];
    std::copy_backward(set, set + assoc - 1, set + assoc);
    set[0] = CacheLine{.blockAddr = block,
                       .valid = true,
                       .dirty = dirty,
                       .touchStamp = stamp};
    _dirty[s] = ((_dirty[s] << 1) & lowBits(assoc)) | (dirty ? 1 : 0);
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
    auto pos = static_cast<unsigned>(found);
    CacheLine &line = lines(s)[pos];
    line.touchStamp = stamp;
    if (isWrite) {
        if (line.eagerCleaned) {
            _lastWriteWastedEager = true;
            line.eagerCleaned = false;
        }
        line.dirty = true;
        _dirty[s] |= bit(pos);
    }
    if (updateLru && pos != 0)
        moveToMru(s, pos);
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
    CacheLine lru = allocateMru(setIndex(addr), blockAlign(addr), dirty,
                                stamp);
    CacheVictim victim;
    if (lru.valid) {
        victim.valid = true;
        victim.dirty = lru.dirty;
        victim.blockAddr = lru.blockAddr;
    }
    return victim;
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
    auto pos = static_cast<unsigned>(found);
    CacheLine &line = lines(s)[pos];
    line.touchStamp = 0;
    if (dirty) {
        line.eagerCleaned = false;
        line.dirty = true;
        _dirty[s] |= bit(pos);
    }
    if (pos != 0)
        moveToMru(s, pos);
}

bool
SetAssocCache::cleanLineForEagerWrite(LogicalAddr addr)
{
    std::uint64_t s = setIndex(addr);
    int found = find(s, blockAlign(addr));
    if (found < 0)
        return false;
    auto pos = static_cast<unsigned>(found);
    CacheLine &line = lines(s)[pos];
    if (!line.dirty)
        return false;
    line.dirty = false;
    line.eagerCleaned = true;
    _dirty[s] &= ~bit(pos);
    return true;
}

std::span<const CacheLine>
SetAssocCache::set(std::uint64_t index) const
{
    panic_if(index >= _numSets, "set index out of range");
    return {_lines.data() + index * _config.assoc, _config.assoc};
}

std::uint64_t
SetAssocCache::countDirtyLines() const
{
    std::uint64_t count = 0;
    for (const CacheLine &line : _lines) {
        if (line.valid && line.dirty)
            ++count;
    }
    return count;
}

} // namespace mellowsim
