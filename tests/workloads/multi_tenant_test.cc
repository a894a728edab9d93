/** Tests for the multi-tenant "memcloud" workload engine. */

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "workloads/multi_tenant.hh"

namespace tmcc
{
namespace
{

MultiTenantParams
smallParams()
{
    MultiTenantParams p;
    p.tenants = 6;
    p.tenantBytes = 4ULL << 20;
    return p;
}

TEST(MultiTenant, RegionsAreGapSeparatedAndOrdered)
{
    const MultiTenantParams p = smallParams();
    MultiTenantWorkload wl(p, 0, 4, 1);
    const auto &regions = wl.regions();
    ASSERT_EQ(regions.size(), p.tenants);
    for (unsigned t = 0; t < p.tenants; ++t) {
        EXPECT_EQ(regions[t].name, "tenant" + std::to_string(t));
        EXPECT_GT(regions[t].bytes, 0u);
        if (t > 0)
            // Strictly separated: a run escaping region t-1 cannot
            // silently land in region t.
            EXPECT_GT(regions[t].base,
                      regions[t - 1].base + regions[t - 1].bytes);
    }
}

TEST(MultiTenant, AccessTenantMatchesItsRegion)
{
    const MultiTenantParams p = smallParams();
    MultiTenantWorkload wl(p, 0, 4, 2);
    const auto &regions = wl.regions();
    for (int i = 0; i < 200'000; ++i) {
        const MemAccess a = wl.next();
        ASSERT_LT(a.tenant, p.tenants);
        const WlRegion &r = regions[a.tenant];
        ASSERT_GE(a.vaddr, r.base)
            << "access " << i << " below tenant " << a.tenant;
        ASSERT_LT(a.vaddr, r.base + r.bytes)
            << "access " << i << " beyond tenant " << a.tenant;
    }
}

TEST(MultiTenant, EveryTenantGetsTraffic)
{
    // Regression companion to Rng.ZipfReachesEveryRank at the engine
    // level: with the zipf off-by-one, the last tenant starved.
    const MultiTenantParams p = smallParams();
    MultiTenantWorkload wl(p, 0, 4, 3);
    std::vector<std::uint64_t> perTenant(p.tenants, 0);
    for (int i = 0; i < 400'000; ++i)
        ++perTenant[wl.next().tenant];
    for (unsigned t = 0; t < p.tenants; ++t)
        EXPECT_GT(perTenant[t], 0u) << "tenant " << t << " starved";
    // Zipf popularity: the most popular tenant clearly dominates the
    // least popular one.
    EXPECT_GT(perTenant[0], 2 * perTenant[p.tenants - 1]);
}

TEST(MultiTenant, DeterministicGivenSeed)
{
    const MultiTenantParams p = smallParams();
    MultiTenantWorkload a(p, 1, 4, 9), b(p, 1, 4, 9);
    for (int i = 0; i < 50'000; ++i) {
        const MemAccess x = a.next();
        const MemAccess y = b.next();
        ASSERT_EQ(x.vaddr, y.vaddr);
        ASSERT_EQ(x.isWrite, y.isWrite);
        ASSERT_EQ(x.tenant, y.tenant);
        ASSERT_EQ(x.thinkCycles, y.thinkCycles);
    }
}

TEST(MultiTenant, ChurnBumpsGenerationsAndRecolonizes)
{
    MultiTenantParams p = smallParams();
    p.churn = 0.2; // every ~5th burst respawns its tenant
    MultiTenantWorkload wl(p, 0, 4, 5);
    std::uint64_t seqWrites = 0;
    for (int i = 0; i < 300'000; ++i)
        seqWrites += wl.next().isWrite;
    std::uint32_t generations = 0;
    for (unsigned t = 0; t < p.tenants; ++t)
        generations += wl.generation(t);
    EXPECT_GT(generations, 10u) << "churn never respawned a guest";
    // Respawn image-rewrites push the write fraction well above the
    // steady-state 25%.
    EXPECT_GT(seqWrites, 300'000 * 0.35);
}

TEST(MultiTenant, ZeroChurnKeepsGenerationZero)
{
    MultiTenantParams p = smallParams();
    p.churn = 0.0;
    MultiTenantWorkload wl(p, 0, 4, 6);
    for (int i = 0; i < 100'000; ++i)
        wl.next();
    for (unsigned t = 0; t < p.tenants; ++t)
        EXPECT_EQ(wl.generation(t), 0u);
}

TEST(MultiTenant, StormWindowTouchesAllTenantsUniformly)
{
    MultiTenantParams p = smallParams();
    p.stormPeriod = 10'000;
    p.stormAccesses = 2'000;
    MultiTenantWorkload wl(p, 0, 4, 7);
    // Count tenants over exactly the storm windows (deterministic in
    // the access index, which starts at 1).
    std::map<std::uint16_t, std::uint64_t> stormTenants;
    for (std::uint64_t i = 1; i <= 100'000; ++i) {
        const MemAccess a = wl.next();
        if (i % p.stormPeriod >= p.stormPeriod - p.stormAccesses)
            ++stormTenants[a.tenant];
    }
    ASSERT_EQ(stormTenants.size(), p.tenants)
        << "storm should spray every tenant";
    // Uniform scheduling: no tenant more than 2x any other.
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (const auto &[t, c] : stormTenants) {
        lo = std::min(lo, c);
        hi = std::max(hi, c);
    }
    EXPECT_LT(hi, 2 * lo);
}

TEST(MultiTenantDeath, RejectsSillyParams)
{
    MultiTenantParams zero = smallParams();
    zero.tenants = 0;
    EXPECT_DEATH(MultiTenantWorkload(zero, 0, 4, 1), "1..1024");

    MultiTenantParams churny = smallParams();
    churny.churn = 1.5;
    EXPECT_DEATH(MultiTenantWorkload(churny, 0, 4, 1), "churn");

    MultiTenantParams stormy = smallParams();
    stormy.stormAccesses = stormy.stormPeriod;
    EXPECT_DEATH(MultiTenantWorkload(stormy, 0, 4, 1), "storm");
}

} // namespace
} // namespace tmcc
