/**
 * @file
 * Round-trip / bijectivity property tests across the three address
 * spaces (see src/sim/strong_types.hh and DESIGN.md):
 *
 *   logical bytes --decode--> (BankId, LineIndex)
 *                 --FaultModel::remap--> DeviceAddr
 *                 --WearLeveler::translate--> LeveledAddr
 *
 * Each conversion step must stay injective over its whole domain —
 * including retired lines (which remap onto spares) and the spare
 * region itself — or two addresses would silently alias one physical
 * line and wear, fault and capacity accounting would all drift.
 */

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fault/fault_model.hh"
#include "nvm/address_map.hh"
#include "sim/rng.hh"
#include "wear/security_refresh.hh"
#include "wear/start_gap.hh"

using namespace mellowsim;

namespace
{

constexpr std::uint64_t kLines = 4096;
constexpr std::uint64_t kSpares = 8;

/** Deterministic fault layer over kLines data + kSpares spare lines. */
FaultConfig
faultConfig()
{
    FaultConfig f;
    f.enabled = true;
    f.numBanks = 2;
    f.blocksPerBank = kLines;
    f.spareLinesPerBank = kSpares;
    f.repairEntriesPerLine = 1;
    f.enduranceSigma = 0.0; // exact: every line endures 1.0 wear unit
    f.enduranceScale = 1.0;
    f.transientFailProb = 0.0;
    return f;
}

/** Wear a device line to retirement (4 x 0.6 wear: repair, retire). */
void
retireLine(FaultModel &fm, BankId bank, DeviceAddr line, Tick base)
{
    for (int i = 0; i < 4; ++i)
        fm.verifyWrite(bank, line, 0.6, PulseFactor(1.0), 0, base + i);
}

} // namespace

TEST(AddressSpaces, DecodeIsInjectiveOverRandomBlocks)
{
    MemGeometry g;
    g.capacityBytes = 1ull << 24; // 256 K blocks
    g.numBanks = 16;
    g.numRanks = 4;
    AddressMap map{g};

    // 4k distinct random logical blocks; decode must never collide in
    // (bank, line) and each output must round-trip to its input set
    // slot exactly once.
    Rng rng(1234);
    std::unordered_set<std::uint64_t> blocks;
    while (blocks.size() < kLines)
        blocks.insert(rng.nextBounded(g.capacityBytes / kBlockSize));

    std::set<std::pair<unsigned, std::uint64_t>> decoded;
    for (std::uint64_t block : blocks) {
        DecodedAddr d = map.decode(LogicalAddr(block * kBlockSize));
        EXPECT_LT(d.bank.value(), g.numBanks);
        EXPECT_LT(d.blockInBank.value(), g.blocksPerBank());
        EXPECT_TRUE(
            decoded.insert({d.bank.value(), d.blockInBank.value()})
                .second)
            << "decode collision at block " << block;
    }
    EXPECT_EQ(decoded.size(), kLines);
}

TEST(AddressSpaces, FaultRemapStaysInjectiveWithRetiredLines)
{
    FaultModel fm(faultConfig());
    const BankId bank(0);

    // Retire a scatter of data lines, and chain one retirement
    // through the spare region (spare wears out too, moves on to the
    // next spare) so the sweep below crosses every case: healthy,
    // retired-once, retired-chained, and live spares.
    Rng rng(99);
    std::vector<std::uint64_t> victims;
    while (victims.size() < 5) {
        std::uint64_t v = rng.nextBounded(kLines);
        bool fresh = true;
        for (std::uint64_t seen : victims)
            fresh = fresh && seen != v;
        if (fresh)
            victims.push_back(v);
    }
    Tick now = 1000;
    for (std::uint64_t v : victims) {
        retireLine(fm, bank, DeviceAddr(v), now);
        now += 100;
    }
    // Chain: wear out the spare the first victim landed on.
    DeviceAddr first_spare = fm.remap(bank, LeveledAddr(victims[0]));
    ASSERT_GE(first_spare.value(), kLines) << "expected a spare line";
    retireLine(fm, bank, first_spare, now);
    ASSERT_EQ(fm.stats().retiredLines, 6u);

    // Sweep EVERY logical line of the bank — including the retired
    // ones: the map logical -> device must stay injective, land only
    // on non-retired device lines, and be the identity exactly for
    // untouched lines.
    std::unordered_set<DeviceAddr> targets;
    for (std::uint64_t l = 0; l < kLines; ++l) {
        DeviceAddr d = fm.remap(bank, LeveledAddr(l));
        EXPECT_TRUE(targets.insert(d).second)
            << "two logical lines share device line " << d.value();
        EXPECT_LT(d.value(), kLines + kSpares);
        EXPECT_FALSE(fm.lineRetired(bank, d))
            << "logical line " << l << " maps to retired device line";
        bool is_victim = false;
        for (std::uint64_t v : victims)
            is_victim = is_victim || v == l;
        if (!is_victim) {
            EXPECT_EQ(d.value(), l) << "healthy line moved";
        }
    }
    EXPECT_EQ(targets.size(), kLines);

    // Remap is stable under composition: feeding a remapped device
    // line back through the table goes nowhere new (chains are
    // followed eagerly, so issue-time resolution is idempotent).
    for (std::uint64_t v : victims) {
        DeviceAddr d = fm.remap(bank, LeveledAddr(v));
        EXPECT_EQ(fm.remap(bank, LeveledAddr(d.value())), d);
    }

    // The other bank is untouched: pure identity.
    for (std::uint64_t l = 0; l < kLines; l += 97)
        EXPECT_EQ(fm.remap(BankId(1), LeveledAddr(l)).value(), l);

    EXPECT_TRUE(fm.remapTableValid());
}

TEST(AddressSpaces, StartGapTranslateIsBijectiveAsGapRotates)
{
    // Device-line space includes the spare region: the leveler covers
    // kLines + kSpares lines, plus its own gap block.
    StartGap sg(kLines + kSpares, /*gapWritePeriod=*/16);
    Rng rng(7);
    for (int round = 0; round < 64; ++round) {
        // Advance the gap an uneven number of steps.
        unsigned steps = 1 + static_cast<unsigned>(rng.nextBounded(40));
        for (unsigned s = 0; s < steps; ++s)
            sg.noteWrite();

        std::unordered_set<LeveledAddr> mapped;
        for (std::uint64_t d = 0; d < sg.numBlocks(); ++d) {
            LeveledAddr p = sg.translate(DeviceAddr(d));
            EXPECT_LT(p.value(), sg.numPhysicalBlocks());
            EXPECT_TRUE(mapped.insert(p).second)
                << "round " << round << ": collision at device " << d;
        }
        EXPECT_EQ(mapped.size(), sg.numBlocks());
    }
}

TEST(AddressSpaces, SecurityRefreshTranslateIsBijectiveAcrossSwaps)
{
    // Security Refresh needs a power-of-two region; device lines
    // without spares model a spare-less bank.
    SecurityRefresh sr(kLines, /*refreshInterval=*/8);
    Rng rng(13);
    for (int round = 0; round < 64; ++round) {
        unsigned steps = 1 + static_cast<unsigned>(rng.nextBounded(24));
        for (unsigned s = 0; s < steps; ++s)
            sr.noteWrite();

        std::unordered_set<LeveledAddr> mapped;
        for (std::uint64_t d = 0; d < sr.numBlocks(); ++d) {
            LeveledAddr p = sr.translate(DeviceAddr(d));
            EXPECT_LT(p.value(), sr.numPhysicalBlocks());
            EXPECT_TRUE(mapped.insert(p).second)
                << "round " << round << ": collision at device " << d;
        }
        EXPECT_EQ(mapped.size(), sr.numBlocks());
    }
}

TEST(AddressSpaces, FullChainComposesInjectively)
{
    // Logical line -> (fault remap) -> device -> (leveler) -> leveled,
    // with retirements active and the gap mid-rotation: the composed
    // map over all 4k lines must still be injective.
    FaultModel fm(faultConfig());
    const BankId bank(0);
    for (std::uint64_t v : {11ull, 222ull, 3333ull})
        retireLine(fm, bank, DeviceAddr(v), 5000 + v);

    StartGap sg(kLines + kSpares, 16);
    for (int s = 0; s < 1000; ++s)
        sg.noteWrite();

    std::unordered_set<LeveledAddr> physical;
    for (std::uint64_t l = 0; l < kLines; ++l) {
        DeviceAddr d = fm.remap(bank, LeveledAddr(l));
        LeveledAddr p = sg.translate(d);
        EXPECT_TRUE(physical.insert(p).second)
            << "composed collision at logical line " << l;
    }
    EXPECT_EQ(physical.size(), kLines);
}
