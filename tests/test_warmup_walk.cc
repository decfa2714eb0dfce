/**
 * @file
 * Differential test of the backward warm-up walk: a batch prime
 * (SetAssocCache's and Hierarchy's) against the one-op forward prime
 * over the same ops, compared on every line: tag, stack position,
 * dirty bit, stamp and eager flag. Runs under the `golden` label: any
 * divergence here would change the state the detailed phase starts
 * from, as a fingerprint change would.
 */

#include <gtest/gtest.h>

#include <random>
#include <span>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "sim/event_queue.hh"

using namespace mellowsim;

namespace
{

constexpr std::uint64_t kWalkOpsPerLine = SetAssocCache::kWalkOpsPerLine;

CacheConfig
geometry(unsigned assoc, std::uint64_t sets)
{
    CacheConfig c;
    c.name = "walk";
    c.assoc = assoc;
    c.sizeBytes = sets * assoc * kBlockSize;
    return c;
}

/** Every line of @p a and @p b, position by position, must agree. */
void
expectSameLines(const SetAssocCache &a, const SetAssocCache &b,
                const std::string &what)
{
    ASSERT_EQ(a.numSets(), b.numSets()) << what;
    for (std::uint64_t s = 0; s < a.numSets(); ++s) {
        ASSERT_EQ(a.dirtyMask(s), b.dirtyMask(s)) << what << " set " << s;
        for (unsigned pos = 0; pos < a.assoc(); ++pos) {
            const CacheLine la = a.line(s, pos);
            const CacheLine lb = b.line(s, pos);
            ASSERT_EQ(la.valid, lb.valid)
                << what << " set " << s << " pos " << pos;
            ASSERT_EQ(la.blockAddr, lb.blockAddr)
                << what << " set " << s << " pos " << pos;
            ASSERT_EQ(la.dirty, lb.dirty)
                << what << " set " << s << " pos " << pos;
            ASSERT_EQ(la.touchStamp, lb.touchStamp)
                << what << " set " << s << " pos " << pos;
            ASSERT_EQ(la.eagerCleaned, lb.eagerCleaned)
                << what << " set " << s << " pos " << pos;
        }
    }
}

/** The kinds of warm-up stream the generators produce. */
enum class Stream
{
    Cold,  ///< every op a new block, in address order
    Hot,   ///< random blocks of a pool about twice the cache
    Mix,   ///< runs of cold and hot ops, as coldFraction mixes them
    Small, ///< random new blocks, an eighth of the cache: no set settles
};

const char *
streamName(Stream k)
{
    switch (k) {
      case Stream::Cold:
        return "cold";
      case Stream::Hot:
        return "hot";
      case Stream::Mix:
        return "mix";
      case Stream::Small:
        return "small";
    }
    return "?";
}

/**
 * @p n ops of kind @p kind over a cache of @p lines lines; a quarter
 * are stores. @p next is the next cold block number.
 */
std::vector<PrimeOp>
makeStream(Stream kind, std::size_t n, std::uint64_t lines,
           std::mt19937_64 &rng, std::uint64_t &next)
{
    std::vector<PrimeOp> ops;
    ops.reserve(n);
    const std::uint64_t pool =
        kind == Stream::Small ? lines / 8 + 1 : 2 * lines + 3;
    bool cold = kind == Stream::Cold || kind == Stream::Mix;
    for (std::size_t i = 0; i < n; ++i) {
        if (kind == Stream::Mix && rng() % 64 == 0)
            cold = !cold;
        std::uint64_t block = rng() % pool;
        if (kind == Stream::Small)
            block += next; // past every block of earlier streams
        else if (cold)
            block = next++;
        const Addr byte = block * kBlockSize + rng() % kBlockSize;
        ops.emplace_back(LogicalAddr(byte), rng() % 4 == 0);
    }
    return ops;
}

/** Prime @p ops into @p c one op at a time, the reference. */
void
primeEach(SetAssocCache &c, std::span<const PrimeOp> ops, bool withStores)
{
    for (const PrimeOp &op : ops)
        c.prime(op.block(), withStores && op.isWrite());
}

struct Shape
{
    unsigned assoc;
    std::uint64_t sets;
};

void
PrintTo(const Shape &s, std::ostream *os)
{
    *os << s.assoc << "way";
}

class WalkAssoc : public ::testing::TestWithParam<Shape>
{
};

} // namespace

TEST_P(WalkAssoc, BatchesStraddlingTheWalkThresholdMatchPerOpPrime)
{
    const Shape shape = GetParam();
    const std::uint64_t lines = shape.assoc * shape.sets;
    const std::size_t threshold = kWalkOpsPerLine * lines;
    // An empty level walks any batch. A level that holds lines walks
    // from the threshold on: below, at and above it, and well above
    // it, where most sets settle before the batch starts.
    const std::size_t sizes[] = {1,         lines / 4 + 1, threshold - 1,
                                 threshold, threshold + 1, 3 * threshold,
                                 12 * threshold};
    // The state the batch starts from: empty, sets about half full
    // (primed op by op, so their lines sit in the last ways), or full
    // (from a batch prime).
    const std::size_t starts[] = {0, lines / 2, threshold};
    std::mt19937_64 rng(shape.assoc * 131 + shape.sets);
    PrimeScratch scratch(0, lines);
    // A Small batch after a primed one keeps sets unsettled, so the
    // lines held before the batch fill them.
    for (Stream kind :
         {Stream::Cold, Stream::Hot, Stream::Mix, Stream::Small}) {
        for (std::size_t n : sizes) {
            for (std::size_t start : starts) {
                const std::string what =
                    std::string(streamName(kind)) + " n=" +
                    std::to_string(n) + " after " +
                    std::to_string(start) + " ops";
                SetAssocCache perOp(geometry(shape.assoc, shape.sets));
                SetAssocCache batched(geometry(shape.assoc, shape.sets));
                std::uint64_t next = 0;
                const auto first = makeStream(
                    start < threshold ? Stream::Cold : Stream::Mix, start,
                    lines, rng, next);
                primeEach(perOp, first, true);
                if (start < threshold)
                    primeEach(batched, first, true);
                else
                    batched.prime(first, true, scratch);
                const auto ops = makeStream(kind, n, lines, rng, next);
                primeEach(perOp, ops, true);
                batched.prime(ops, true, scratch);
                expectSameLines(perOp, batched, what);
                if (testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

TEST_P(WalkAssoc, StoresIgnoredWhenAskedMatchPerOpPrime)
{
    // The L2 primes with stores ignored: lines stay clean.
    const Shape shape = GetParam();
    const std::uint64_t lines = shape.assoc * shape.sets;
    std::mt19937_64 rng(shape.assoc);
    std::uint64_t next = 0;
    const auto ops =
        makeStream(Stream::Mix, 4 * kWalkOpsPerLine * lines, lines, rng,
                   next);
    SetAssocCache perOp(geometry(shape.assoc, shape.sets));
    SetAssocCache batched(geometry(shape.assoc, shape.sets));
    PrimeScratch scratch(0, lines);
    primeEach(perOp, ops, false);
    batched.prime(ops, false, scratch);
    expectSameLines(perOp, batched, "stores ignored");
    EXPECT_EQ(batched.countDirtyLines(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Associativity, WalkAssoc,
                         ::testing::Values(Shape{1, 64}, Shape{2, 32},
                                           Shape{4, 16}, Shape{8, 16},
                                           Shape{16, 8}, Shape{64, 4}));

TEST(WarmupWalk, ArrayTouchedOutsideWarmUpStillMatches)
{
    // After a demand access (stamps) and an eager clean (eager flags),
    // the batch prime must keep both exactly as the one-op prime does.
    // Small streams leave most lines the first batch installed
    // untouched by the second, so their stamps and flags must survive
    // it.
    SetAssocCache perOp(geometry(8, 16));
    SetAssocCache batched(geometry(8, 16));
    std::mt19937_64 rng(5);
    std::uint64_t next = 0;
    PrimeScratch scratch(0, 128);
    const auto first = makeStream(Stream::Small, 2048, 128, rng, next);
    primeEach(perOp, first, true);
    batched.prime(first, true, scratch);
    for (SetAssocCache *c : {&perOp, &batched}) {
        for (std::uint64_t b = 0; b < 17; ++b)
            (void)c->access(LogicalAddr(b * kBlockSize), b % 3 == 0,
                            true, 7);
        for (std::uint64_t b = 0; b < 17; b += 2)
            (void)c->cleanLineForEagerWrite(LogicalAddr(b * kBlockSize));
    }
    next = 1000;
    const auto ops = makeStream(Stream::Small, 2048, 128, rng, next);
    primeEach(perOp, ops, true);
    batched.prime(ops, true, scratch);
    expectSameLines(perOp, batched, "after demand traffic");
}

TEST(WarmupWalk, HierarchyBatchesMatchPerOpPrime)
{
    // Small levels, so that every level walks some batches and
    // primes others forward, and the Table I levels, where the LLC
    // primes forward. One scratch serves every level and batch.
    HierarchyConfig small;
    small.l1 = geometry(2, 8);
    small.l2 = geometry(4, 32);
    small.llc.cache = geometry(8, 64);
    for (const HierarchyConfig &config : {small, HierarchyConfig{}}) {
        const std::uint64_t lines =
            config.llc.cache.sizeBytes / kBlockSize;
        std::mt19937_64 rng(lines);
        std::uint64_t next = 0;
        EventQueue eq;
        struct NullPort : MemoryPort
        {
            void read(LogicalAddr, ReadCallback) override {}
            void writeback(LogicalAddr) override {}
            bool eagerWrite(LogicalAddr) override { return true; }
            bool eagerQueueHasSpace() const override { return true; }
        } port;
        Hierarchy perOp(eq, config, port, 1);
        Hierarchy batched(eq, config, port, 1);
        PrimeScratch scratch = batched.primeScratch(0);
        const std::size_t batchSizes[] = {1000, 40'000, 3, 131'072, 777};
        for (std::size_t n : batchSizes) {
            const Stream kind = n % 2 == 0 ? Stream::Mix : Stream::Hot;
            const auto ops = makeStream(kind, n, lines, rng, next);
            for (const PrimeOp &op : ops)
                perOp.prime(op.block(), op.isWrite());
            batched.prime(ops, scratch);
            const std::string what =
                "llc " + std::to_string(lines) + " lines, batch " +
                std::to_string(n);
            expectSameLines(perOp.l1(), batched.l1(), "L1 " + what);
            expectSameLines(perOp.l2(), batched.l2(), "L2 " + what);
            expectSameLines(perOp.llc().array(), batched.llc().array(),
                            "LLC " + what);
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
}
