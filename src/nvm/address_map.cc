#include "nvm/address_map.hh"

#include "sim/logging.hh"

namespace mellowsim
{

namespace
{

/** splitmix64 finaliser used as the Feistel round function. */
std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
}

} // namespace

AddressMap::AddressMap(const MemGeometry &geometry) : _geometry(geometry)
{
    fatal_if(geometry.numBanks == 0, "geometry needs >= 1 bank");
    fatal_if(geometry.numRanks == 0, "geometry needs >= 1 rank");
    fatal_if(geometry.numBanks % geometry.numRanks != 0,
             "banks (%u) must divide evenly into ranks (%u)",
             geometry.numBanks, geometry.numRanks);
    fatal_if(geometry.rowBufferBytes < kBlockSize,
             "row buffer smaller than a block");
    fatal_if(geometry.interleaveBytes < kBlockSize,
             "interleave granularity smaller than a block");
    fatal_if(geometry.capacityBytes <
                 static_cast<std::uint64_t>(geometry.numBanks) *
                     geometry.interleaveBytes,
             "capacity smaller than one interleave chunk per bank");

    // The decode shifts and masks, so every divisor must be a power
    // of two.
    auto log2Of = [](const char *what, std::uint64_t v) {
        fatal_if(!isPowerOfTwo(v),
                 "the address map needs a power-of-two %s (got %llu)",
                 what, static_cast<unsigned long long>(v));
        return floorLog2(v);
    };
    _capacityMask =
        (std::uint64_t{1} << log2Of("capacity", geometry.capacityBytes)) -
        1;
    _rowBufferShift =
        log2Of("row buffer", geometry.rowBufferBytes) - kBlockShift;
    _chunkShift =
        log2Of("interleave granularity", geometry.interleaveBytes) -
        kBlockShift;
    _bankShift = log2Of("bank count", geometry.numBanks);
    _rankShift = log2Of("banks per rank", geometry.banksPerRank());

    if (geometry.pageScramble) {
        fatal_if(geometry.pageBytes < kBlockSize,
                 "page size smaller than a block");
        fatal_if(geometry.capacityBytes % geometry.pageBytes != 0,
                 "capacity must be a multiple of the page size");
        _pageShift = log2Of("page size", geometry.pageBytes);
        _pageBits = log2Of("page count",
                           geometry.capacityBytes / geometry.pageBytes);
    }
}

LogicalAddr
AddressMap::translate(LogicalAddr addr) const
{
    Addr raw = addr.value() & _capacityMask;
    // Fewer than four pages: nothing meaningful to permute.
    if (!_geometry.pageScramble || _pageBits < 2)
        return LogicalAddr(raw);

    std::uint64_t page = raw >> _pageShift;
    std::uint64_t offset = raw & ((std::uint64_t{1} << _pageShift) - 1);

    // Unbalanced Feistel network over the page index: each round
    // XOR-masks one half with a hash of the other, which is a
    // bijection for any split; four rounds diffuse thoroughly.
    unsigned a = _pageBits / 2;      // high-half bits
    unsigned b = _pageBits - a;      // low-half bits
    for (unsigned round = 0; round < 4; ++round) {
        std::uint64_t mask_a = (std::uint64_t(1) << a) - 1;
        std::uint64_t mask_b = (std::uint64_t(1) << b) - 1;
        std::uint64_t hi = (page >> b) & mask_a;
        std::uint64_t lo = page & mask_b;
        hi ^= mix(lo + (std::uint64_t(round) << 32) +
                  0x5EEDF00Dull) &
              mask_a;
        // Swap halves (and their widths) for the next round.
        page = (lo << a) | hi;
        std::swap(a, b);
    }
    return LogicalAddr((page << _pageShift) | offset);
}

DecodedAddr
AddressMap::decode(LogicalAddr addr) const
{
    std::uint64_t block = translate(addr).value() >> kBlockShift;
    std::uint64_t chunk = block >> _chunkShift;
    std::uint64_t offset = block & ((std::uint64_t{1} << _chunkShift) - 1);

    DecodedAddr d;
    d.bank = BankId(static_cast<unsigned>(
        chunk & ((std::uint64_t{1} << _bankShift) - 1)));
    d.rank = d.bank.value() >> _rankShift;
    d.blockInBank =
        LineIndex(((chunk >> _bankShift) << _chunkShift) | offset);
    d.rowTag = d.blockInBank.value() >> _rowBufferShift;
    return d;
}

} // namespace mellowsim
