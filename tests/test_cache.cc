/** @file Tests for the set-associative LRU cache array. */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "sim/logging.hh"

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

TEST(Cache, FillAllocatesOnlyWhenAbsent)
{
    // A fill never allocates a second copy: a present line keeps its
    // place, and a dirty fill only dirties it.
    SetAssocCache c(tiny(2, 2));
    EXPECT_FALSE(c.fill(addrFor(0, 1), false).valid);
    EXPECT_FALSE(c.fill(addrFor(0, 2), false).valid); // tag 1 at LRU
    EXPECT_FALSE(c.fill(addrFor(0, 1), true).valid);  // present
    EXPECT_EQ(c.line(0, 1).blockAddr, addrFor(0, 1));
    EXPECT_TRUE(c.line(0, 1).dirty);
    EXPECT_EQ(c.countDirtyLines(), 1u);
    // A miss evicts the LRU line, the dirtied tag 1.
    CacheVictim v = c.fill(addrFor(0, 3), false, 5);
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(v.blockAddr, addrFor(0, 1));
    EXPECT_EQ(c.line(0, 0).blockAddr, addrFor(0, 3));
    EXPECT_EQ(c.line(0, 0).touchStamp, 5u);
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
    EXPECT_EQ(c.line(0, 0).blockAddr, addrFor(0, 4)); // MRU: last insert
    EXPECT_EQ(c.line(0, 3).blockAddr, addrFor(0, 1)); // LRU: first insert
    EXPECT_THROW((void)c.line(2, 0), PanicError);
    EXPECT_THROW((void)c.line(0, 4), PanicError);
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
    EXPECT_EQ(c.line(0, 0).blockAddr, addrFor(0, 2));
    EXPECT_TRUE(c.line(0, 0).dirty);
    EXPECT_EQ(c.dirtyMask(0), 0x1u);
    c.prime(addrFor(0, 5), false); // miss: evicts LRU tag 1
    EXPECT_FALSE(c.probe(addrFor(0, 1)));
    EXPECT_EQ(c.line(0, 0).blockAddr, addrFor(0, 5));
    EXPECT_EQ(c.dirtyMask(0), 0x2u);
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
