/**
 * @file
 * Physical address decomposition for the resistive main memory.
 *
 * The channel interleaves at row granularity (16 KB chunks round-robin
 * across banks, the open-page-friendly mapping): consecutive blocks
 * within a row live in the same bank and enjoy row-buffer hits, while
 * streams and their trailing write backs land on *different* banks.
 * That asymmetric bank usage is exactly what the paper's Bank-Aware
 * and Eager Mellow Writes feed on (Figures 3-5). The interleave
 * granularity is configurable down to one block for sensitivity
 * studies.
 */

#ifndef MELLOWSIM_NVM_ADDRESS_MAP_HH
#define MELLOWSIM_NVM_ADDRESS_MAP_HH

#include <cstdint>

#include "sim/strong_types.hh"
#include "sim/types.hh"

namespace mellowsim
{

/** Geometry of the memory system (Table II defaults). */
struct MemGeometry
{
    unsigned numBanks = 16;
    unsigned numRanks = 4;
    std::uint64_t capacityBytes = 4ull * 1024 * 1024 * 1024;
    std::uint64_t rowBufferBytes = 1024;
    std::uint64_t rowBytes = 16 * 1024;
    /** Contiguous bytes per bank before moving to the next bank. */
    std::uint64_t interleaveBytes = 16 * 1024;

    /**
     * Pseudo-randomly permute 4 KB pages across the capacity (a
     * deterministic stand-in for OS physical page allocation). This
     * decorrelates a streaming workload's LLC eviction trail from its
     * read cursor — without it, power-of-two alignment parks every
     * trailing write back on the very bank the stream is reading,
     * which no real (page-mapped) system exhibits. Page-internal
     * locality, and therefore row-buffer behaviour, is preserved.
     */
    bool pageScramble = true;
    std::uint64_t pageBytes = 4096;

    [[nodiscard]] unsigned banksPerRank() const
    {
        return numBanks / numRanks;
    }
    [[nodiscard]] std::uint64_t blocksPerBank() const
    {
        return capacityBytes / kBlockSize / numBanks;
    }
};

/** Where one block-aligned address lives. */
struct DecodedAddr
{
    BankId bank{0};
    unsigned rank = 0;
    /** Line index within the bank (logical space, pre-fault-remap). */
    LineIndex blockInBank{0};
    /** Row-buffer segment tag within the bank (open-page tracking). */
    std::uint64_t rowTag = 0;
};

/**
 * Decodes physical addresses under a given geometry. Capacity, row
 * buffer, interleave chunk, page (when scrambling), bank count and
 * banks per rank must be powers of two: the decode shifts and masks.
 */
class AddressMap
{
  public:
    explicit AddressMap(const MemGeometry &geometry);

    [[nodiscard]] DecodedAddr decode(LogicalAddr addr) const;

    /**
     * The page-permuted logical address (identity when scrambling is
     * off). Exposed for tests: the permutation must be a bijection.
     */
    [[nodiscard]] LogicalAddr translate(LogicalAddr addr) const;

    [[nodiscard]] const MemGeometry &geometry() const
    {
        return _geometry;
    }

  private:
    MemGeometry _geometry;
    /**
     * Every divisor of the decode is a power of two (checked at
     * construction), so it masks by the capacity (the wrap) and
     * shifts by the log2 of page bytes, blocks per chunk, blocks per
     * row buffer, bank count and banks per rank.
     */
    std::uint64_t _capacityMask = 0;
    unsigned _pageShift = 0;
    unsigned _chunkShift = 0;
    unsigned _rowBufferShift = 0;
    unsigned _bankShift = 0;
    unsigned _rankShift = 0;
    unsigned _pageBits = 0;
};

} // namespace mellowsim

#endif // MELLOWSIM_NVM_ADDRESS_MAP_HH
