/**
 * @file
 * The parameterised synthetic workload engine.
 *
 * One generator class covers all eleven benchmarks: each benchmark is
 * a WorkloadParams record (spec_workloads.cc) selecting an address
 * archetype, a hot/cold region split that sets the LLC miss rate, a
 * store fraction, read-modify-write behaviour, dependence structure
 * and a compute-gap distribution.
 */

#ifndef MELLOWSIM_WORKLOAD_GENERATORS_HH
#define MELLOWSIM_WORKLOAD_GENERATORS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "sim/rng.hh"
#include "workload/geometric_gap.hh"
#include "workload/patterns.hh"
#include "workload/workload.hh"

namespace mellowsim
{

/** Full description of a synthetic benchmark. */
struct WorkloadParams
{
    std::string name = "custom";
    /** Table IV MPKI this generator is calibrated against. */
    double paperMpki = 0.0;

    /** Cold (memory-resident) region size; every access misses LLC. */
    std::uint64_t footprintBytes = 256ull * 1024 * 1024;
    /** Hot (cache-resident) region size. */
    std::uint64_t hotBytes = 512ull * 1024;
    /** Probability an access targets the cold region. */
    double coldFraction = 1.0;

    AccessPattern pattern = AccessPattern::Sequential;
    unsigned numStreams = 1;
    std::uint64_t strideBytes = kBlockSize;

    /** Probability a memory op is a store. */
    double writeFraction = 0.0;
    /**
     * Probability an access is a load immediately followed by a store
     * to the same block (GUPS-style read-modify-write).
     */
    double rmwFraction = 0.0;
    /** Cold loads depend on the previous access (pointer chasing). */
    bool dependentLoads = false;

    /** Mean compute instructions between memory ops (geometric). */
    double meanGap = 100.0;
};

/**
 * The generic generator.
 *
 * Address layout: the cold region starts at 1 GB to stay clear of the
 * hot region at 0; both are block-aligned by construction.
 */
class SyntheticWorkload : public Workload
{
  public:
    SyntheticWorkload(const WorkloadParams &params, std::uint64_t seed);

    Op next() override;

    const WorkloadInfo &info() const override { return _info; }

    const WorkloadParams &params() const { return _params; }

  private:
    WorkloadParams _params;
    WorkloadInfo _info;
    Rng _rng;
    PatternCursor _cold;
    PatternCursor _hot;
    GeometricGap _gap;

    /** Pending store half of a read-modify-write pair. */
    bool _rmwPending = false;
    Addr _rmwAddr = 0;
};

/** Convenience factory. */
WorkloadPtr makeSynthetic(const WorkloadParams &params,
                          std::uint64_t seed = 1);

} // namespace mellowsim

#endif // MELLOWSIM_WORKLOAD_GENERATORS_HH
