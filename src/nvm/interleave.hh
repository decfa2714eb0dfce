/**
 * @file
 * Channel-interleave address decode for MemorySystem: which channel
 * serves an address and what its channel-local rewrite is. The
 * 4-channel entry of the golden fingerprints (tests/golden/) pins the
 * arithmetic.
 */

#ifndef MELLOWSIM_NVM_INTERLEAVE_HH
#define MELLOWSIM_NVM_INTERLEAVE_HH

#include <cstdint>

#include "nvm/address_map.hh"
#include "sim/logging.hh"
#include "sim/strong_types.hh"
#include "sim/types.hh"

namespace mellowsim
{

/**
 * Stripes block-aligned addresses across channels at the interleave
 * granularity and rewrites them into each channel's local space, so a
 * channel controller is bit-identical to a single-channel
 * configuration of the same per-channel geometry.
 */
class ChannelInterleave
{
  public:
    /** @p geometry carries the TOTAL capacity across all channels. */
    ChannelInterleave(const MemGeometry &geometry, unsigned numChannels)
        : _blocksPerChunk(geometry.interleaveBytes / kBlockSize),
          _totalCapacity(geometry.capacityBytes),
          _numChannels(numChannels)
    {
        fatal_if(numChannels == 0, "interleave needs >= 1 channel");
        fatal_if(geometry.capacityBytes % numChannels != 0,
                 "capacity must divide evenly across channels");
    }

    [[nodiscard]] unsigned numChannels() const { return _numChannels; }

    /** Which channel serves @p addr. */
    [[nodiscard]] ChannelId
    channelOf(LogicalAddr addr) const
    {
        // mlint: allow(value-escape): channel-interleave decode is
        // modular arithmetic on the raw byte address (the system-level
        // analogue of AddressMap::decode).
        std::uint64_t block =
            (addr.value() % _totalCapacity) >> kBlockShift;
        std::uint64_t chunk = block / _blocksPerChunk;
        return ChannelId(static_cast<unsigned>(chunk % _numChannels));
    }

    /** The channel-local address @p addr maps to. */
    [[nodiscard]] LogicalAddr
    localAddr(LogicalAddr addr) const
    {
        // mlint: allow(value-escape): channel-interleave decode (see
        // channelOf); rewrites the address into the channel-local
        // space.
        std::uint64_t block =
            (addr.value() % _totalCapacity) >> kBlockShift;
        std::uint64_t chunk = block / _blocksPerChunk;
        std::uint64_t offset = block % _blocksPerChunk;
        std::uint64_t local_chunk = chunk / _numChannels;
        // mlint: allow(value-escape): see above.
        return LogicalAddr((local_chunk * _blocksPerChunk + offset) *
                               kBlockSize +
                           addr.value() % kBlockSize);
    }

  private:
    std::uint64_t _blocksPerChunk;
    std::uint64_t _totalCapacity;
    unsigned _numChannels;
};

} // namespace mellowsim

#endif // MELLOWSIM_NVM_INTERLEAVE_HH
