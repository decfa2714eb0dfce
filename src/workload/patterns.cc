#include "workload/patterns.hh"

#include "sim/logging.hh"

namespace mellowsim
{

const char *
patternName(AccessPattern pattern)
{
    switch (pattern) {
      case AccessPattern::Sequential: return "sequential";
      case AccessPattern::Strided: return "strided";
      case AccessPattern::Random: return "random";
      case AccessPattern::PointerChase: return "pointer-chase";
    }
    return "?";
}

PatternCursor::PatternCursor(AccessPattern pattern, Addr base,
                             std::uint64_t sizeBytes, Rng &rng,
                             unsigned numStreams,
                             std::uint64_t strideBytes)
    : _pattern(pattern), _base(base & ~Addr(kBlockSize - 1)),
      _blocks(sizeBytes / kBlockSize), _rng(rng),
      _strideBlocks(strideBytes / kBlockSize)
{
    fatal_if(_blocks == 0, "pattern region smaller than one block");
    fatal_if(numStreams == 0, "pattern needs >= 1 stream");
    if (_strideBlocks == 0)
        _strideBlocks = 1;
    // A whole lap of the region is no step at all, so one compare
    // and subtract wraps a cursor in next().
    _strideBlocks %= _blocks;
    if (pattern == AccessPattern::Sequential ||
        pattern == AccessPattern::Strided) {
        _cursors.resize(numStreams);
        for (unsigned i = 0; i < numStreams; ++i) {
            // Spread streams across the region, with a small prime
            // stagger so same-phase streams do not all land on the
            // same bank under coarse (row-granularity) interleaving —
            // separately malloc'd arrays are never that aligned.
            _cursors[i] =
                (_blocks / numStreams * i + 263ull * i) % _blocks;
        }
    }
}

Addr
PatternCursor::next()
{
    std::uint64_t block = 0;
    switch (_pattern) {
      case AccessPattern::Sequential: {
        auto &cur = _cursors[_nextStream];
        if (++_nextStream == _cursors.size())
            _nextStream = 0;
        block = cur;
        cur = cur + 1 == _blocks ? 0 : cur + 1;
        break;
      }
      case AccessPattern::Strided: {
        auto &cur = _cursors[_nextStream];
        if (++_nextStream == _cursors.size())
            _nextStream = 0;
        block = cur;
        cur += _strideBlocks;
        if (cur >= _blocks)
            cur -= _blocks;
        break;
      }
      case AccessPattern::Random:
        block = _rng.nextBounded(_blocks);
        break;
      case AccessPattern::PointerChase:
        // Each hop lands on a fresh pseudo-random node; the *workload*
        // marks these dependent, serialising the chain.
        _chasePos = _rng.nextBounded(_blocks);
        block = _chasePos;
        break;
    }
    return _base + block * kBlockSize;
}

} // namespace mellowsim
