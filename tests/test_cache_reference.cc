/**
 * @file
 * Differential test of the ring-ordered cache array against a
 * reference LRU model with one std::vector per set, MRU first. Runs
 * under the `golden` label: any divergence here would change model
 * decisions, as a fingerprint change would.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"
#include "sim/rng.hh"

using namespace mellowsim;

namespace
{

CacheConfig
geometry(unsigned assoc, std::uint64_t sets)
{
    CacheConfig c;
    c.name = "ref";
    c.assoc = assoc;
    c.sizeBytes = sets * assoc * kBlockSize;
    return c;
}

LogicalAddr
addrFor(std::uint64_t set, std::uint64_t tag, std::uint64_t numSets)
{
    return LogicalAddr((tag * numSets + set) * kBlockSize);
}

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

/**
 * Compare every position of every set of @p c with @p ref, and each
 * dirty mask with a recount of the reference's dirty lines.
 */
::testing::AssertionResult
matches(const SetAssocCache &c, const ReferenceCache &ref)
{
    for (std::uint64_t s = 0; s < c.numSets(); ++s) {
        const std::vector<CacheLine> &want = ref.set(s);
        std::uint64_t recount = 0;
        for (unsigned pos = 0; pos < c.assoc(); ++pos) {
            const CacheLine g = c.line(s, pos);
            const CacheLine &w = want[pos];
            if (g.valid != w.valid || g.blockAddr != w.blockAddr ||
                g.dirty != w.dirty || g.eagerCleaned != w.eagerCleaned ||
                g.touchStamp != w.touchStamp) {
                return ::testing::AssertionFailure()
                       << "set " << s << " position " << pos
                       << " differs from the reference";
            }
            if (w.valid && w.dirty)
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
 * Property: under random access/insert/prime/clean sequences the
 * array keeps the reference model's exact per-set order and line
 * state, returns the same victims, and its dirty masks match a
 * brute-force recount. The associativities cover one way, odd and
 * non-power-of-two rings, the simulated L1/L2/LLC shapes, and the
 * full 64-bit mask, where a rotation must not shift by 64.
 */
TEST(Cache, FlatArrayMatchesReferenceLru)
{
    for (unsigned assoc : {1u, 2u, 3u, 4u, 12u, 16u, 64u}) {
        constexpr std::uint64_t kSets = 4;
        SetAssocCache c(geometry(assoc, kSets));
        ReferenceCache ref(assoc, kSets);
        Rng rng(assoc);
        const int ops = 4000 + 250 * static_cast<int>(assoc);
        for (int op = 0; op < ops; ++op) {
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
