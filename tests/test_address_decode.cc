/**
 * @file
 * Decode equivalence: the address map's shift-and-mask decode against
 * the division formula it replaced, for 10^6 random addresses on the
 * geometry of every shipped device config and of the Table II default.
 * Runs under the `golden` label: a divergence would move requests to
 * other banks, lines and rows, as a fingerprint change would.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "config/device_config.hh"
#include "nvm/address_map.hh"
#include "sim/logging.hh"

using namespace mellowsim;

namespace
{

/** The Feistel round function of the page permutation. */
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

/** The page permutation written with divisions, as it used to be. */
Addr
referenceTranslate(const MemGeometry &g, Addr addr)
{
    Addr raw = addr % g.capacityBytes;
    if (!g.pageScramble)
        return raw;
    std::uint64_t pages = g.capacityBytes / g.pageBytes;
    unsigned bits = 0;
    while ((std::uint64_t{1} << bits) < pages)
        ++bits;
    if (bits < 2)
        return raw;
    std::uint64_t page = raw / g.pageBytes;
    std::uint64_t offset = raw % g.pageBytes;
    unsigned a = bits / 2;
    unsigned b = bits - a;
    for (unsigned round = 0; round < 4; ++round) {
        std::uint64_t hi = (page >> b) & ((std::uint64_t{1} << a) - 1);
        std::uint64_t lo = page & ((std::uint64_t{1} << b) - 1);
        hi ^= mix(lo + (std::uint64_t(round) << 32) + 0x5EEDF00Dull) &
              ((std::uint64_t{1} << a) - 1);
        page = (lo << a) | hi;
        std::swap(a, b);
    }
    return page * g.pageBytes + offset;
}

/** The decode written with divisions, as it used to be. */
DecodedAddr
referenceDecode(const MemGeometry &g, Addr addr)
{
    const std::uint64_t blocksPerChunk = g.interleaveBytes / kBlockSize;
    const std::uint64_t blocksPerRowBuffer = g.rowBufferBytes / kBlockSize;
    std::uint64_t block = referenceTranslate(g, addr) / kBlockSize;
    std::uint64_t chunk = block / blocksPerChunk;
    std::uint64_t offset = block % blocksPerChunk;
    DecodedAddr d;
    d.bank = BankId(static_cast<unsigned>(chunk % g.numBanks));
    d.rank = d.bank.value() / g.banksPerRank();
    d.blockInBank =
        LineIndex(chunk / g.numBanks * blocksPerChunk + offset);
    d.rowTag = d.blockInBank.value() / blocksPerRowBuffer;
    return d;
}

/** One channel's geometry of every shipped config, and the default. */
std::vector<std::pair<std::string, MemGeometry>>
geometries()
{
    std::vector<std::pair<std::string, MemGeometry>> out;
    out.emplace_back("default", MemGeometry{});
    for (const std::string &name : deviceConfigNames()) {
        const DeviceConfig dev = loadDeviceConfig(name);
        MemGeometry g = dev.controller.geometry;
        // MemorySystem splits the capacity evenly over the channels.
        g.capacityBytes /= dev.numChannels;
        out.emplace_back(name, g);
    }
    return out;
}

} // namespace

TEST(AddressDecode, ShiftsMatchTheDivisionFormula)
{
    const auto all = geometries();
    ASSERT_GT(all.size(), 1u) << "no shipped configs found";
    std::mt19937_64 rng(29);
    for (const auto &[name, g] : all) {
        const AddressMap map{g};
        for (int i = 0; i < 1'000'000; ++i) {
            // Half inside the capacity, half anywhere: the decode
            // wraps at the capacity first.
            Addr addr = rng();
            if (i % 2 == 0)
                addr %= g.capacityBytes;
            const DecodedAddr want = referenceDecode(g, addr);
            const DecodedAddr got = map.decode(LogicalAddr(addr));
            ASSERT_EQ(map.translate(LogicalAddr(addr)).value(),
                      referenceTranslate(g, addr))
                << name << " addr " << addr;
            ASSERT_EQ(got.bank, want.bank) << name << " addr " << addr;
            ASSERT_EQ(got.rank, want.rank) << name << " addr " << addr;
            ASSERT_EQ(got.blockInBank, want.blockInBank)
                << name << " addr " << addr;
            ASSERT_EQ(got.rowTag, want.rowTag) << name << " addr " << addr;
        }
    }
}

TEST(AddressDecode, RejectsNonPowerOfTwoDivisors)
{
    // Each breaks one divisor the decode shifts by; the rest stay the
    // Table II default.
    const std::vector<void (*)(MemGeometry &)> breaks = {
        [](MemGeometry &g) {
            g.capacityBytes = 3ull << 30;
            g.pageScramble = false;
        },
        [](MemGeometry &g) { g.rowBufferBytes = 768; },
        [](MemGeometry &g) { g.interleaveBytes = 24576; },
        [](MemGeometry &g) { g.numBanks = 12; },
        [](MemGeometry &g) {
            g.numBanks = 24;
            g.numRanks = 8;
        },
    };
    for (std::size_t i = 0; i < breaks.size(); ++i) {
        MemGeometry g;
        breaks[i](g);
        EXPECT_THROW(AddressMap{g}, FatalError) << "break " << i;
    }
}
