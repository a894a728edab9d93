/**
 * @file
 * Non-graph workload analogues: SPEC's mcf/omnetpp, PARSEC's canneal
 * (the remaining large/irregular set of Fig. 1), the small/regular
 * PARSEC + RocksDB set of §VII, and the bandwidth-intensive set used
 * for the interleaving study (Fig. 22).
 *
 * Each analogue is a parameterized access-pattern engine whose knobs
 * (footprint, hot-set skew, pointer-chase depth, sequential run length,
 * read/write mix, think time) are set to mimic the published behaviour
 * of its namesake; region content families mimic its data.
 */

#ifndef TMCC_WORKLOADS_SYNTHETIC_HH
#define TMCC_WORKLOADS_SYNTHETIC_HH

#include "common/rng.hh"
#include "workloads/workload.hh"

namespace tmcc
{

/** Knobs of the synthetic engine. */
struct SyntheticParams
{
    std::string name = "synthetic";

    /** Regions (content + size); region 0 is the "main" array. */
    std::vector<WlRegion> regions;

    /** Probability an access starts a sequential run vs a random jump. */
    double sequentialFraction = 0.2;

    /** Length of sequential runs in 64B blocks. */
    unsigned runBlocks = 8;

    /** Zipf skew of random jumps (0 = uniform). */
    double zipfAlpha = 0.0;

    /**
     * Alternative hot/cold model (used when hotFraction > 0): random
     * jumps land uniformly in the first `hotFraction` of the footprint
     * (the working set) except with probability `coldP`, when they
     * touch the cold remainder.  This gives the three-scale structure
     * large workloads have: TLB reach << working set <= ML1 << footprint.
     */
    double hotFraction = 0.0;
    double coldP = 0.02;

    /** Fraction of accesses that are writes. */
    double writeFraction = 0.2;

    /** Pointer-chase: each random jump is followed by this many
     * dependent jumps (mcf-style). */
    unsigned chaseDepth = 0;

    /** Mean think cycles between accesses. */
    double thinkMean = 4.0;
};

/** The configurable pattern engine. */
class SyntheticWorkload : public Workload
{
  public:
    SyntheticWorkload(const SyntheticParams &params, unsigned core,
                      unsigned cores, std::uint64_t seed);

    const std::string &name() const override { return p_.name; }
    const std::vector<WlRegion> &regions() const override
    {
        return p_.regions;
    }
    MemAccess next() override;


  private:
    Addr randomTarget();
    const WlRegion &regionOf(Addr a) const;

    SyntheticParams p_;
    Rng rng_;
    std::uint64_t totalBlocks_ = 0;

    Addr seqCursor_ = 0;
    unsigned seqLeft_ = 0;
    unsigned chaseLeft_ = 0;
    Addr chaseCursor_ = 0;
    /** Bounds of the region the current sequential run started in.
     * Derived from seqCursor_, so not serialized. */
    Addr seqBase_ = 0;
    Addr seqLimit_ = 0;
};

} // namespace tmcc

#endif // TMCC_WORKLOADS_SYNTHETIC_HH
