/** Tests for configuration presets and remaining workload sets. */

#include <unordered_set>

#include <gtest/gtest.h>

#include "sim/system.hh"

namespace tmcc
{
namespace
{

TEST(ScaledDefault, PreservesReachHierarchy)
{
    const SimConfig cfg = SimConfig::scaledDefault();

    // TLB reach ~ LLC; Compresso CTE reach above both; TMCC CTE reach
    // largest (the §III/IV structure).
    const double tlb_reach = cfg.tlbEntries * double(pageSize);
    const double l3 = double(cfg.hierarchy.l3Bytes);
    const double compresso_reach =
        double(cfg.compresso.cteCacheBytes) / blockCteBytes * pageSize;
    const double tmcc_reach = double(cfg.osMc.cteCacheBytes) /
                              pageCteBytes * pageSize;

    EXPECT_GE(tlb_reach, l3);
    EXPECT_GE(compresso_reach, tlb_reach);
    EXPECT_GT(tmcc_reach, compresso_reach);

    // A default graph workload footprint dwarfs every reach.
    auto wl = makeWorkload("pageRank", 0, 4, cfg.scale, 1);
    EXPECT_GT(static_cast<double>(wl->footprintBytes()),
              3.0 * tmcc_reach);
}

TEST(ScaledDefault, TimingStaysFullScale)
{
    const SimConfig cfg = SimConfig::scaledDefault();
    // Latency parameters must not be scaled (Table III values).
    EXPECT_DOUBLE_EQ(cfg.cpuGhz, 2.8);
    EXPECT_EQ(cfg.l1Cycles, 3u);
    EXPECT_EQ(cfg.l2Cycles, 11u);
    EXPECT_EQ(cfg.l3Cycles, 50u);
    EXPECT_DOUBLE_EQ(cfg.nocToMcNs, 18.0);
    EXPECT_DOUBLE_EQ(cfg.dram.tClNs, 13.75);
}

TEST(Workloads, SmallAndBandwidthSetsStayInRegions)
{
    std::vector<std::string> names = smallWorkloadNames();
    for (const auto &n : bandwidthWorkloadNames())
        names.push_back(n);
    for (const auto &name : names) {
        auto wl = makeWorkload(name, 2, 4, 0.05, 9);
        const auto &regions = wl->regions();
        for (int i = 0; i < 3000; ++i) {
            const MemAccess a = wl->next();
            bool inside = false;
            for (const auto &r : regions)
                inside |= a.vaddr >= r.base &&
                          a.vaddr < r.base + r.bytes;
            ASSERT_TRUE(inside) << name;
        }
    }
}

TEST(Workloads, StreamIsSequential)
{
    auto wl = makeWorkload("stream", 0, 1, 0.05, 1);
    unsigned sequential = 0;
    Addr prev = wl->next().vaddr;
    for (int i = 0; i < 5000; ++i) {
        const Addr cur = wl->next().vaddr;
        sequential += cur == prev + blockSize;
        prev = cur;
    }
    EXPECT_GT(sequential, 4500u);
}

TEST(Workloads, GupsIsUniformRandom)
{
    auto wl = makeWorkload("gups", 0, 1, 0.05, 1);
    std::unordered_set<Addr> pages;
    unsigned writes = 0;
    for (int i = 0; i < 5000; ++i) {
        const MemAccess a = wl->next();
        pages.insert(pageNumber(a.vaddr));
        writes += a.isWrite;
    }
    EXPECT_GT(pages.size(), 600u); // scattered
    EXPECT_NEAR(writes / 5000.0, 0.5, 0.05);
}

TEST(System, SixteenCoreTwoMcConfigRuns)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = "hpcg";
    cfg.scale = 0.05;
    cfg.cores = 16;
    cfg.interleave.numMcs = 2;
    cfg.interleave.channelsPerMc = 2;
    cfg.interleave.mcGranularity = 4096;
    cfg.placementAccesses = 4000;
    cfg.warmAccesses = 2000;
    cfg.measureAccesses = 4000;
    cfg.arch = Arch::NoCompression;
    System sys(cfg);
    const SimResult r = sys.measure();
    EXPECT_GT(r.accesses, 0u);
    // Traffic must reach every channel of both MCs.
    EXPECT_GT(r.stats.get("dram.mc0.ch0.reads"), 0.0);
    EXPECT_GT(r.stats.get("dram.mc0.ch1.reads"), 0.0);
    EXPECT_GT(r.stats.get("dram.mc1.ch0.reads"), 0.0);
    EXPECT_GT(r.stats.get("dram.mc1.ch1.reads"), 0.0);
}

TEST(System, PrefetchersOffStillCorrect)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = "pageRank";
    cfg.scale = 0.02;
    cfg.hierarchy.prefetchers = false;
    cfg.placementAccesses = 10000;
    cfg.warmAccesses = 5000;
    cfg.measureAccesses = 10000;
    cfg.arch = Arch::Tmcc;
    System sys(cfg);
    const SimResult r = sys.measure();
    EXPECT_GT(r.accesses, 0u);
    EXPECT_EQ(r.stats.get("hier.pf.nl1.0.issued"), 0.0);
}

TEST(NestedPaging, TwoDWalksFetchMorePtbs)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = "mcf";
    cfg.scale = 0.1;
    cfg.arch = Arch::NoCompression;
    cfg.placementAccesses = 8000;
    cfg.warmAccesses = 4000;
    cfg.measureAccesses = 8000;

    System native(cfg);
    const SimResult rn = native.measure();

    cfg.nestedPaging = true;
    System nested(cfg);
    const SimResult rv = nested.measure();

    const double native_fetches =
        rn.stats.get("hier.walker_accesses") /
        std::max(1.0, rn.stats.get("core0.walker.walks") * 4.0);
    const double nested_fetches =
        rv.stats.get("hier.walker_accesses") /
        std::max(1.0, rv.stats.get("core0.walker.walks") * 4.0);
    // A 2D walk needs several times the PTB fetches of a native walk
    // (up to 24 vs 4; PWCs absorb part of it).
    EXPECT_GT(nested_fetches, native_fetches * 1.8);
}

TEST(NestedPaging, TmccStillWorksUnderVms)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = "mcf";
    cfg.scale = 0.1;
    cfg.nestedPaging = true;
    cfg.placementAccesses = 8000;
    cfg.warmAccesses = 4000;
    cfg.measureAccesses = 8000;

    cfg.arch = Arch::Barebone;
    System bb(cfg);
    const SimResult rb = bb.measure();

    cfg.arch = Arch::Tmcc;
    System tm(cfg);
    const SimResult rt = tm.measure();

    // Host PTBs still embed CTEs: the parallel path must exist and
    // TMCC must not lose to barebone.
    EXPECT_GE(rt.accessesPerNs(), rb.accessesPerNs() * 0.98);
    EXPECT_GT(rt.ml1Parallel + rt.ml1CteHit, 0u);
}

TEST(NestedPaging, DeterministicAndConsistent)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = "canneal";
    cfg.scale = 0.1;
    cfg.nestedPaging = true;
    cfg.arch = Arch::Tmcc;
    cfg.placementAccesses = 5000;
    cfg.warmAccesses = 2000;
    cfg.measureAccesses = 5000;
    System a(cfg);
    System b(cfg);
    const SimResult ra = a.measure();
    const SimResult rb = b.measure();
    EXPECT_EQ(ra.elapsed, rb.elapsed);
    EXPECT_EQ(ra.llcMisses, rb.llcMisses);
}

} // namespace
} // namespace tmcc
