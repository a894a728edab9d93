/**
 * @file
 * Multi-tenant "memcloud" workload: one host multiplexing N guest
 * address spaces, the deployment model §V-A3 motivates (memory-cloud
 * hosts oversubscribing DRAM with hardware compression).
 *
 * Each tenant owns one region at a gap-separated base (so a sequential
 * run that escaped its region would land in unmapped space — the bug
 * class the SyntheticWorkload wrap fix closed).  The engine schedules
 * tenants in bursts with Zipf-skewed popularity, models tenant churn
 * (a guest exits and a replacement spawns into the slot, rewriting part
 * of its image and moving the hot set, which fragments and recycles
 * ML1/ML2 free lists), and drives periodic global-pressure storms that
 * spray accesses across every tenant's cold pages to force ML2
 * demotion/promotion storms.
 *
 * All cores share the tenant address spaces (like host CPUs serving
 * the same guests); each core runs its own burst schedule from its own
 * RNG stream.  Region `t` of regions() is tenant `t`'s space, in
 * order — System relies on this to attribute per-tenant footprints.
 */

#ifndef TMCC_WORKLOADS_MULTI_TENANT_HH
#define TMCC_WORKLOADS_MULTI_TENANT_HH

#include "common/rng.hh"
#include "workloads/workload.hh"

namespace tmcc
{

/** Knobs of the memcloud engine. */
struct MultiTenantParams
{
    std::string name = "memcloud";

    unsigned tenants = 6;                    //!< guest count
    std::uint64_t tenantBytes = 32ULL << 20; //!< footprint per guest

    /** Tenant popularity skew: bursts pick tenant zipf(N, alpha). */
    double zipfAlpha = 1.1;

    /**
     * Per-burst probability that the scheduled slot's guest has been
     * replaced since its last burst: the generation bumps, the hot set
     * moves, and the new guest rewrites 1/16 of the slot sequentially
     * before serving traffic.
     */
    double churn = 0.001;

    /** Mean accesses per tenant burst (geometric). */
    double burstMean = 64.0;

    /** Probability an access starts a sequential run vs a jump. */
    double sequentialFraction = 0.25;

    /** Length of sequential runs in 64B blocks. */
    unsigned runBlocks = 16;

    /** Hot working-set fraction of each tenant's region. */
    double hotFraction = 0.12;

    /** Probability a jump leaves the hot window for the cold rest. */
    double coldP = 0.03;

    /** Fraction of accesses that are writes. */
    double writeFraction = 0.25;

    /** Mean think cycles between accesses. */
    double thinkMean = 4.0;

    /**
     * Global-pressure storms: the last `stormAccesses` of every
     * `stormPeriod` accesses spray uniformly across all tenants' full
     * regions (cold pages included).  Deterministic in the access
     * index, so runs are reproducible.
     * stormPeriod = 0 disables storms.
     */
    std::uint64_t stormPeriod = 250'000;
    std::uint64_t stormAccesses = 25'000;
};

/** The multi-tenant engine. */
class MultiTenantWorkload : public Workload
{
  public:
    MultiTenantWorkload(const MultiTenantParams &params, unsigned core,
                        unsigned cores, std::uint64_t seed);

    const std::string &name() const override { return p_.name; }
    const std::vector<WlRegion> &regions() const override
    {
        return regions_;
    }
    MemAccess next() override;


    /** Guest generation of a slot (tests: observe churn). */
    std::uint32_t generation(unsigned tenant) const
    {
        return tenants_[tenant].generation;
    }

  private:
    /** Per-slot guest state. */
    struct TenantState
    {
        std::uint32_t generation = 0;
        /** Blocks the freshly spawned guest still has to rewrite. */
        std::uint64_t recolonizeLeft = 0;
        Addr recolonizeCursor = 0;
    };

    void respawn(unsigned tenant);
    Addr jumpTarget(unsigned tenant);

    MultiTenantParams p_;
    std::vector<WlRegion> regions_;
    Rng rng_;
    std::uint64_t blocksPerTenant_ = 0;

    std::uint64_t accessIndex_ = 0;
    std::uint16_t curTenant_ = 0;
    std::uint32_t burstLeft_ = 0;
    Addr seqCursor_ = 0;
    std::uint32_t seqLeft_ = 0;
    std::vector<TenantState> tenants_;
};

} // namespace tmcc

#endif // TMCC_WORKLOADS_MULTI_TENANT_HH
