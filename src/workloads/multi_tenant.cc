#include "workloads/multi_tenant.hh"

#include <algorithm>

#include "common/log.hh"

namespace tmcc
{

namespace
{

/** Tenant regions sit at widely separated bases: the gaps make any
 * access that escapes its region an unmapped-page fault, not a silent
 * hit on a neighbour. */
constexpr Addr tenantBase = 1ULL << 30;
constexpr Addr tenantStride = 1ULL << 32;
constexpr Addr tenantAlign = 1ULL << 21; // huge-page alignment

/** Heterogeneous guest images: cycle content families across slots so
 * tenants compress differently (a database guest next to a numeric
 * one), exercising every ML2 sub-chunk class at once. */
const ContentSpec &
tenantContent(unsigned tenant)
{
    static const ContentSpec specs[] = {
        {ContentFamily::KeyValue, 0.5, 2.5},
        {ContentFamily::IntArray, 0.6, 1.5},
        {ContentFamily::FloatArray, 0.4, 2.0},
        {ContentFamily::Text, 0.5, 2.0},
        {ContentFamily::PointerHeap, 0.5, 2.0},
        {ContentFamily::GraphCsr, 0.4, 1.0},
    };
    return specs[tenant % (sizeof(specs) / sizeof(specs[0]))];
}

} // namespace

MultiTenantWorkload::MultiTenantWorkload(const MultiTenantParams &params,
                                         unsigned core, unsigned cores,
                                         std::uint64_t seed)
    : p_(params), rng_(seed * 9176 + core * 131 + 17)
{
    (void)cores;
    fatalIf(p_.tenants < 1 || p_.tenants > 1024,
            "memcloud wants 1..1024 tenants, got " +
                std::to_string(p_.tenants));
    fatalIf(p_.churn < 0.0 || p_.churn > 1.0,
            "memcloud tenant churn must be a rate in [0, 1]");
    fatalIf(p_.zipfAlpha <= 0.0,
            "memcloud tenant zipf alpha must be positive");
    fatalIf(p_.stormPeriod > 0 && p_.stormAccesses >= p_.stormPeriod,
            "memcloud storm window must be shorter than its period");

    const std::uint64_t bytes =
        (std::max<std::uint64_t>(p_.tenantBytes, tenantAlign) +
         tenantAlign - 1) &
        ~(tenantAlign - 1);
    blocksPerTenant_ = bytes / blockSize;
    regions_.reserve(p_.tenants);
    for (unsigned t = 0; t < p_.tenants; ++t) {
        WlRegion r;
        r.name = "tenant" + std::to_string(t);
        r.base = tenantBase + static_cast<Addr>(t) * tenantStride;
        r.bytes = bytes;
        r.content = tenantContent(t);
        regions_.push_back(std::move(r));
    }
    tenants_.resize(p_.tenants);
    seqCursor_ = regions_[0].base;
}

void
MultiTenantWorkload::respawn(unsigned tenant)
{
    TenantState &ts = tenants_[tenant];
    ++ts.generation;
    // The replacement guest writes a fresh image over 1/16 of its slot
    // before serving traffic; the sweep starts at a generation-rotated
    // offset so successive guests dirty different pages.
    ts.recolonizeLeft = std::max<std::uint64_t>(blocksPerTenant_ / 16, 1);
    const std::uint64_t start_blk =
        (static_cast<std::uint64_t>(ts.generation) *
         (blocksPerTenant_ / 4 + 1)) %
        blocksPerTenant_;
    ts.recolonizeCursor =
        regions_[tenant].base + start_blk * blockSize;
}

Addr
MultiTenantWorkload::jumpTarget(unsigned tenant)
{
    const WlRegion &r = regions_[tenant];
    std::uint64_t blk;
    if (rng_.chance(p_.coldP)) {
        blk = rng_.below(blocksPerTenant_);
    } else {
        // The hot window rotates with the guest generation: a respawn
        // turns the previous guest's hot pages cold (ML2 demotion
        // fodder) and faults a fresh window up from ML2.
        const std::uint64_t hot_blocks = std::max<std::uint64_t>(
            static_cast<std::uint64_t>(
                p_.hotFraction * static_cast<double>(blocksPerTenant_)),
            1);
        const std::uint64_t start =
            (static_cast<std::uint64_t>(tenants_[tenant].generation) *
             hot_blocks * 7) %
            blocksPerTenant_;
        blk = (start + rng_.below(hot_blocks)) % blocksPerTenant_;
    }
    return r.base + blk * blockSize;
}

MemAccess
MultiTenantWorkload::next()
{
    MemAccess a;
    a.thinkCycles =
        static_cast<unsigned>(rng_.geometric(p_.thinkMean));
    ++accessIndex_;

    // Global-pressure storm: every tenant is active at once and the
    // reference stream loses its per-tenant locality, uniformly
    // touching cold pages host-wide.  Aborts any in-progress burst.
    if (p_.stormPeriod > 0 &&
        accessIndex_ % p_.stormPeriod >=
            p_.stormPeriod - p_.stormAccesses) {
        const auto t =
            static_cast<std::uint16_t>(rng_.below(p_.tenants));
        a.tenant = t;
        a.isWrite = rng_.chance(p_.writeFraction);
        a.vaddr = regions_[t].base +
                  rng_.below(blocksPerTenant_) * blockSize;
        burstLeft_ = 0;
        seqLeft_ = 0;
        return a;
    }

    if (burstLeft_ == 0) {
        // New burst: popular tenants get scheduled most often.  A run
        // in progress dies with its burst — sequential runs never span
        // tenants (the cross-region streaming bug this workload
        // stresses).
        curTenant_ = static_cast<std::uint16_t>(
            rng_.zipf(p_.tenants, p_.zipfAlpha));
        burstLeft_ =
            1 + static_cast<std::uint32_t>(rng_.geometric(p_.burstMean));
        seqLeft_ = 0;
        if (rng_.chance(p_.churn))
            respawn(curTenant_);
    }
    --burstLeft_;

    a.tenant = curTenant_;
    const WlRegion &r = regions_[curTenant_];
    TenantState &ts = tenants_[curTenant_];

    if (ts.recolonizeLeft > 0) {
        // The freshly spawned guest streams its image in: sequential
        // writes that recompress pages and churn ML2 sub-chunk
        // allocations.  Progresses only while this tenant is scheduled.
        a.isWrite = true;
        a.vaddr = ts.recolonizeCursor;
        ts.recolonizeCursor += blockSize;
        if (ts.recolonizeCursor >= r.base + r.bytes)
            ts.recolonizeCursor = r.base;
        --ts.recolonizeLeft;
        return a;
    }

    a.isWrite = rng_.chance(p_.writeFraction);

    if (seqLeft_ > 0) {
        --seqLeft_;
        seqCursor_ += blockSize;
        // Wrap within this tenant's region; the cursor can only be
        // here because the run started in it (runs die at burst ends).
        if (seqCursor_ >= r.base + r.bytes)
            seqCursor_ = r.base;
        a.vaddr = seqCursor_;
        return a;
    }

    if (rng_.chance(p_.sequentialFraction)) {
        seqLeft_ = p_.runBlocks;
        seqCursor_ = jumpTarget(curTenant_);
        a.vaddr = seqCursor_;
        return a;
    }

    a.vaddr = jumpTarget(curTenant_);
    return a;
}

} // namespace tmcc
