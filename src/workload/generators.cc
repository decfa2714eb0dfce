#include "workload/generators.hh"

#include "sim/logging.hh"

namespace mellowsim
{

namespace
{
/** Cold region base: clear of the hot region at address 0. */
constexpr Addr kColdBase = 1ull << 30;
} // namespace

SyntheticWorkload::SyntheticWorkload(const WorkloadParams &params,
                                     std::uint64_t seed)
    : _params(params), _info{params.name, params.paperMpki},
      _rng(seed ^ 0xC0FFEE0Dull),
      _cold(params.pattern, kColdBase, params.footprintBytes, _rng,
            params.numStreams, params.strideBytes),
      _hot(AccessPattern::Random, 0, params.hotBytes, _rng),
      _gap(params.meanGap)
{
    fatal_if(params.coldFraction < 0.0 || params.coldFraction > 1.0,
             "coldFraction must be in [0, 1]");
    fatal_if(params.writeFraction < 0.0 || params.writeFraction > 1.0,
             "writeFraction must be in [0, 1]");
    fatal_if(params.rmwFraction < 0.0 || params.rmwFraction > 1.0,
             "rmwFraction must be in [0, 1]");
    fatal_if(params.meanGap < 0.0, "meanGap must be non-negative");
}

Op
SyntheticWorkload::next()
{
    Op op;

    // Complete a pending read-modify-write with its store half; it
    // reuses the just-loaded block, so it hits in the L1.
    if (_rmwPending) {
        _rmwPending = false;
        op.gap = 0;
        op.isWrite = true;
        op.dependsOnPrev = true;
        op.addr = _rmwAddr;
        return op;
    }

    op.gap = static_cast<std::uint32_t>(_gap.draw(_rng));

    bool cold = _rng.nextBool(_params.coldFraction);
    op.addr = cold ? _cold.next() : _hot.next();

    if (_rng.nextBool(_params.rmwFraction)) {
        // Load now; the matching store is emitted on the next call.
        op.isWrite = false;
        _rmwPending = true;
        _rmwAddr = op.addr;
    } else {
        op.isWrite = _rng.nextBool(_params.writeFraction);
    }

    op.dependsOnPrev = cold && _params.dependentLoads && !op.isWrite;
    return op;
}

WorkloadPtr
makeSynthetic(const WorkloadParams &params, std::uint64_t seed)
{
    return std::make_unique<SyntheticWorkload>(params, seed);
}

} // namespace mellowsim
