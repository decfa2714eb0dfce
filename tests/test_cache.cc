/** @file Tests for the set-associative LRU cache array. */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

using namespace mellowsim;

namespace
{

CacheConfig
tiny(unsigned assoc = 4, std::uint64_t sets = 2)
{
    CacheConfig c;
    c.name = "tiny";
    c.assoc = assoc;
    c.sizeBytes = sets * assoc * kBlockSize;
    c.hitLatency = 3;
    return c;
}

/** Address landing in set @p set with tag id @p tag (2-set cache). */
LogicalAddr
addrFor(std::uint64_t set, std::uint64_t tag, std::uint64_t num_sets = 2)
{
    return LogicalAddr((tag * num_sets + set) * kBlockSize);
}

} // namespace

TEST(Cache, MissOnEmpty)
{
    SetAssocCache c(tiny());
    EXPECT_FALSE(c.access(LogicalAddr(0x40), false).hit);
    EXPECT_FALSE(c.probe(LogicalAddr(0x40)));
}

TEST(Cache, InsertThenHit)
{
    SetAssocCache c(tiny());
    c.insert(LogicalAddr(0x40), false);
    EXPECT_TRUE(c.probe(LogicalAddr(0x40)));
    CacheAccessResult r = c.access(LogicalAddr(0x40), false);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.lruPos, 0u);
}

TEST(Cache, SubBlockOffsetsHitSameLine)
{
    SetAssocCache c(tiny());
    c.insert(LogicalAddr(0x40), false);
    EXPECT_TRUE(c.access(LogicalAddr(0x7F), false).hit);
    EXPECT_TRUE(c.access(LogicalAddr(0x41), false).hit);
}

TEST(Cache, LruStackPositionsReported)
{
    SetAssocCache c(tiny(4, 2));
    // Fill set 0 with tags 0..3; after inserts, tag 3 is MRU.
    for (std::uint64_t t = 0; t < 4; ++t)
        c.insert(addrFor(0, t), false);
    EXPECT_EQ(c.access(addrFor(0, 3), false).lruPos, 0u);
    // tag 0 was inserted first: now LRU... but the access above moved
    // tag 3 to MRU (it already was). Check tag 0 at position 3.
    EXPECT_EQ(c.access(addrFor(0, 0), false).lruPos, 3u);
    // That access promoted tag 0 to MRU.
    EXPECT_EQ(c.access(addrFor(0, 0), false).lruPos, 0u);
}

TEST(Cache, EvictsTrueLruVictim)
{
    SetAssocCache c(tiny(2, 2));
    c.insert(addrFor(0, 1), false);
    c.insert(addrFor(0, 2), false);
    c.access(addrFor(0, 1), false); // promote tag 1
    CacheVictim v = c.insert(addrFor(0, 3), false);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.blockAddr, addrFor(0, 2));
    EXPECT_TRUE(c.probe(addrFor(0, 1)));
    EXPECT_FALSE(c.probe(addrFor(0, 2)));
}

TEST(Cache, VictimCarriesDirtyBit)
{
    SetAssocCache c(tiny(1, 2));
    c.insert(addrFor(0, 1), false);
    c.access(addrFor(0, 1), true); // dirty it
    CacheVictim v = c.insert(addrFor(0, 2), false);
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
}

TEST(Cache, InvalidVictimWhenSetNotFull)
{
    SetAssocCache c(tiny());
    CacheVictim v = c.insert(LogicalAddr(0x40), false);
    EXPECT_FALSE(v.valid);
}

TEST(Cache, DoubleInsertPanics)
{
    SetAssocCache c(tiny());
    c.insert(LogicalAddr(0x40), false);
    EXPECT_THROW(c.insert(LogicalAddr(0x40), true), PanicError);
}

TEST(Cache, WriteSetsDirty)
{
    SetAssocCache c(tiny());
    c.insert(LogicalAddr(0x40), false);
    EXPECT_EQ(c.countDirtyLines(), 0u);
    c.access(LogicalAddr(0x40), true);
    EXPECT_EQ(c.countDirtyLines(), 1u);
}

TEST(Cache, NoLruUpdateOptionKeepsStack)
{
    SetAssocCache c(tiny(2, 2));
    c.insert(addrFor(0, 1), false);
    c.insert(addrFor(0, 2), false); // tag2 MRU, tag1 LRU
    c.access(addrFor(0, 1), true, /*updateLru=*/false);
    // tag 1 stays at LRU and is the next victim.
    CacheVictim v = c.insert(addrFor(0, 3), false);
    EXPECT_EQ(v.blockAddr, addrFor(0, 1));
    EXPECT_TRUE(v.dirty);
}

TEST(Cache, CleanLineForEagerWrite)
{
    SetAssocCache c(tiny());
    c.insert(LogicalAddr(0x40), true);
    EXPECT_TRUE(c.cleanLineForEagerWrite(LogicalAddr(0x40)));
    EXPECT_EQ(c.countDirtyLines(), 0u);
    EXPECT_TRUE(c.probe(LogicalAddr(0x40))); // NOT evicted
    // Already clean: returns false.
    EXPECT_FALSE(c.cleanLineForEagerWrite(LogicalAddr(0x40)));
    // Absent line: returns false.
    EXPECT_FALSE(c.cleanLineForEagerWrite(LogicalAddr(0x1000040)));
}

TEST(Cache, RedirtyingEagerCleanedLineFlagsWaste)
{
    SetAssocCache c(tiny());
    c.insert(LogicalAddr(0x40), true);
    c.cleanLineForEagerWrite(LogicalAddr(0x40));
    c.access(LogicalAddr(0x40), false);
    EXPECT_FALSE(c.lastWriteWastedEager()); // reads never waste
    c.access(LogicalAddr(0x40), true);
    EXPECT_TRUE(c.lastWriteWastedEager());
    // Only flagged once per eager clean.
    c.access(LogicalAddr(0x40), true);
    EXPECT_FALSE(c.lastWriteWastedEager());
}

TEST(Cache, SetAccessorExposesRecencyOrder)
{
    SetAssocCache c(tiny(4, 2));
    for (std::uint64_t t = 1; t <= 4; ++t)
        c.insert(addrFor(0, t), t % 2 == 0);
    const auto &set = c.set(0); // set index 0
    EXPECT_EQ(set.size(), 4u);
    EXPECT_EQ(set[0].blockAddr, addrFor(0, 4)); // MRU: last insert
    EXPECT_EQ(set[3].blockAddr, addrFor(0, 1)); // LRU: first insert
    EXPECT_THROW((void)c.set(2), PanicError);
}

TEST(Cache, RejectsBadGeometry)
{
    CacheConfig c;
    c.assoc = 0;
    EXPECT_THROW(SetAssocCache{c}, FatalError);

    c = CacheConfig{};
    c.sizeBytes = 1000; // not a multiple of assoc * 64
    EXPECT_THROW(SetAssocCache{c}, FatalError);

    c = CacheConfig{};
    c.sizeBytes = 3 * 16 * kBlockSize; // 3 sets: not a power of two
    EXPECT_THROW(SetAssocCache{c}, FatalError);
}

TEST(Cache, AssociativityIsBoundedByTheDirtyMask)
{
    EXPECT_NO_THROW(SetAssocCache{tiny(64, 1)});
    EXPECT_THROW(SetAssocCache{tiny(65, 1)}, FatalError);
    EXPECT_THROW(SetAssocCache{tiny(128, 1)}, FatalError);
}

TEST(Cache, PrimeHitsMoveToMruAndMissesAllocate)
{
    SetAssocCache c(tiny(4, 2));
    for (std::uint64_t t = 1; t <= 4; ++t)
        c.prime(addrFor(0, t), false);
    c.prime(addrFor(0, 2), true); // hit: to MRU, now dirty
    EXPECT_EQ(c.set(0)[0].blockAddr, addrFor(0, 2));
    EXPECT_TRUE(c.set(0)[0].dirty);
    EXPECT_EQ(c.dirtyMask(0), 0x1u);
    c.prime(addrFor(0, 5), false); // miss: evicts LRU tag 1
    EXPECT_FALSE(c.probe(addrFor(0, 1)));
    EXPECT_EQ(c.set(0)[0].blockAddr, addrFor(0, 5));
    EXPECT_EQ(c.dirtyMask(0), 0x2u);
}

namespace
{

/**
 * Reference LRU model with the array's original semantics: one
 * std::vector per set, MRU first, lines moved by erase/insert.
 */
class ReferenceCache
{
  public:
    ReferenceCache(unsigned assoc, std::uint64_t sets)
        : _sets(sets, std::vector<CacheLine>(assoc))
    {
    }

    std::vector<CacheLine> &
    setOf(LogicalAddr a)
    {
        return _sets[blockNumber(a) % _sets.size()];
    }

    const std::vector<CacheLine> &
    set(std::uint64_t i) const
    {
        return _sets[i];
    }

    CacheAccessResult
    access(LogicalAddr a, bool isWrite, bool updateLru,
           std::uint32_t stamp)
    {
        auto &set = setOf(a);
        wasted = false;
        for (unsigned pos = 0; pos < set.size(); ++pos) {
            CacheLine &line = set[pos];
            if (!line.valid || line.blockAddr != blockAlign(a))
                continue;
            line.touchStamp = stamp;
            if (isWrite) {
                wasted = line.eagerCleaned;
                line.eagerCleaned = false;
                line.dirty = true;
            }
            if (updateLru && pos != 0) {
                CacheLine moved = line;
                set.erase(set.begin() + pos);
                set.insert(set.begin(), moved);
            }
            return {true, pos};
        }
        return {false, 0};
    }

    CacheVictim
    insert(LogicalAddr a, bool dirty, std::uint32_t stamp)
    {
        auto &set = setOf(a);
        CacheVictim v{set.back().valid, set.back().dirty,
                      set.back().blockAddr};
        set.pop_back();
        CacheLine line;
        line.blockAddr = blockAlign(a);
        line.valid = true;
        line.dirty = dirty;
        line.touchStamp = stamp;
        set.insert(set.begin(), line);
        return v;
    }

    bool
    clean(LogicalAddr a)
    {
        for (CacheLine &line : setOf(a)) {
            if (line.valid && line.blockAddr == blockAlign(a)) {
                if (!line.dirty)
                    return false;
                line.dirty = false;
                line.eagerCleaned = true;
                return true;
            }
        }
        return false;
    }

    bool wasted = false;

  private:
    std::vector<std::vector<CacheLine>> _sets;
};

/** Compare every set of @p c with @p ref, and the dirty masks. */
::testing::AssertionResult
matches(const SetAssocCache &c, const ReferenceCache &ref)
{
    for (std::uint64_t s = 0; s < c.numSets(); ++s) {
        std::span<const CacheLine> got = c.set(s);
        const std::vector<CacheLine> &want = ref.set(s);
        std::uint64_t recount = 0;
        for (unsigned pos = 0; pos < c.assoc(); ++pos) {
            const CacheLine &g = got[pos];
            const CacheLine &w = want[pos];
            if (g.valid != w.valid ||
                (w.valid && (g.blockAddr != w.blockAddr ||
                             g.dirty != w.dirty ||
                             g.eagerCleaned != w.eagerCleaned ||
                             g.touchStamp != w.touchStamp))) {
                return ::testing::AssertionFailure()
                       << "set " << s << " position " << pos
                       << " differs from the reference";
            }
            if (g.valid && g.dirty)
                recount |= std::uint64_t{1} << pos;
        }
        if (c.dirtyMask(s) != recount) {
            return ::testing::AssertionFailure()
                   << "set " << s << " dirty mask " << c.dirtyMask(s)
                   << " != recount " << recount;
        }
    }
    return ::testing::AssertionSuccess();
}

} // namespace

/**
 * Property: under random access/insert/prime/clean sequences the flat
 * array keeps the reference model's exact per-set order and line
 * state, and its dirty masks match a brute-force recount.
 */
TEST(Cache, FlatArrayMatchesReferenceLru)
{
    for (unsigned assoc : {1u, 2u, 4u, 16u}) {
        constexpr std::uint64_t kSets = 4;
        SetAssocCache c(tiny(assoc, kSets));
        ReferenceCache ref(assoc, kSets);
        Rng rng(assoc);
        for (int op = 0; op < 4000; ++op) {
            LogicalAddr a =
                addrFor(rng.nextBounded(kSets),
                        rng.nextBounded(2 * assoc + 1), kSets);
            bool flag = rng.nextBool(0.5);
            auto stamp = static_cast<std::uint32_t>(rng.nextBounded(8));
            switch (rng.nextBounded(4)) {
              case 0: {
                bool updateLru = rng.nextBool(0.8);
                CacheAccessResult got = c.access(a, flag, updateLru, stamp);
                CacheAccessResult want =
                    ref.access(a, flag, updateLru, stamp);
                ASSERT_EQ(got.hit, want.hit);
                if (want.hit) {
                    ASSERT_EQ(got.lruPos, want.lruPos);
                }
                ASSERT_EQ(c.lastWriteWastedEager(), ref.wasted);
                break;
              }
              case 1:
                if (!c.probe(a)) {
                    CacheVictim got = c.insert(a, flag, stamp);
                    CacheVictim want = ref.insert(a, flag, stamp);
                    ASSERT_EQ(got.valid, want.valid);
                    if (want.valid) {
                        ASSERT_EQ(got.dirty, want.dirty);
                        ASSERT_EQ(got.blockAddr, want.blockAddr);
                    }
                }
                break;
              case 2:
                c.prime(a, flag);
                if (!ref.access(a, flag, true, 0).hit)
                    ref.insert(a, flag, 0);
                break;
              default:
                ASSERT_EQ(c.cleanLineForEagerWrite(a), ref.clean(a));
                break;
            }
            ASSERT_TRUE(matches(c, ref))
                << "assoc " << assoc << " after op " << op;
        }
    }
}

/**
 * Property (stack property, Mattson et al.): a larger cache's LRU
 * content is a superset of a smaller one's under the same trace.
 */
TEST(Cache, LruStackInclusionProperty)
{
    SetAssocCache small(tiny(2, 1));
    SetAssocCache large(tiny(4, 1));
    std::uint64_t tags[] = {1, 2, 3, 1, 4, 2, 5, 1, 3, 2, 6, 4, 1};
    for (std::uint64_t t : tags) {
        LogicalAddr a = addrFor(0, t, 1);
        if (!small.access(a, false).hit)
            small.insert(a, false);
        if (!large.access(a, false).hit)
            large.insert(a, false);
    }
    // Every line in the small cache must be in the large cache.
    for (std::uint64_t t = 1; t <= 6; ++t) {
        LogicalAddr a = addrFor(0, t, 1);
        if (small.probe(a)) {
            EXPECT_TRUE(large.probe(a)) << "tag " << t;
        }
    }
}
