/** Integration tests: the assembled system end to end. */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "common/trace.hh"
#include "sim/sim_result.hh"
#include "sim/system.hh"
#include "tests/sim/system_test_peer.hh"

namespace tmcc
{
namespace
{

SimConfig
tinyConfig(Arch arch, const std::string &workload = "pageRank")
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = workload;
    cfg.scale = 0.02;
    cfg.arch = arch;
    cfg.placementAccesses = 20'000;
    cfg.warmAccesses = 10'000;
    cfg.measureAccesses = 20'000;
    return cfg;
}

TEST(System, NoCompressionRuns)
{
    System sys(tinyConfig(Arch::NoCompression));
    const SimResult r = sys.measure();
    EXPECT_GT(r.accesses, 0u);
    EXPECT_GT(r.elapsed, 0u);
    EXPECT_GT(r.accessesPerNs(), 0.0);
    EXPECT_DOUBLE_EQ(r.compressionRatio(), 1.0);
    EXPECT_EQ(r.cteMisses + r.cteHits, 0u); // no CTE machinery
}

TEST(SystemTest, CteBufferStatsOnlyWhereTheArchHasOne)
{
    // Only the archs that embed CTEs in PTBs (TMCC, barebone+ml1)
    // have per-core CTE buffers, so only they report them.
    for (Arch arch : {Arch::NoCompression, Arch::Compresso,
                      Arch::Barebone, Arch::BarebonePlusMl1,
                      Arch::BarebonePlusMl2, Arch::Tmcc}) {
        const SimConfig cfg = tinyConfig(arch);
        const SimResult r = System(cfg).measure();
        const bool has =
            arch == Arch::Tmcc || arch == Arch::BarebonePlusMl1;
        for (unsigned c = 0; c < cfg.cores; ++c) {
            const std::string prefix =
                "core" + std::to_string(c) + ".cte_buffer.";
            for (const char *key :
                 {"inserts", "hits", "misses", "stale_updates"})
                EXPECT_EQ(r.stats.has(prefix + key), has)
                    << archName(arch) << ": " << prefix << key;
        }
        if (has) {
            EXPECT_GT(r.stats.get("core0.cte_buffer.inserts"), 0.0)
                << archName(arch);
        }
    }
}

TEST(System, CompressoSavesMemoryAndPaysLatency)
{
    System base(tinyConfig(Arch::NoCompression));
    const SimResult rb = base.measure();
    System comp(tinyConfig(Arch::Compresso));
    const SimResult rc = comp.measure();

    EXPECT_GT(rc.compressionRatio(), 1.02);
    EXPECT_GT(rc.avgL3MissLatencyNs, rb.avgL3MissLatencyNs);
    EXPECT_LT(rc.accessesPerNs(), rb.accessesPerNs() * 1.02);
}

TEST(System, TmccBeatsCompressoAtIsoSavings)
{
    // TMCC's placement/CTE machinery needs a longer window than the
    // other smoke tests to amortize; 20k accesses sits on a knife edge.
    SimConfig cfg = tinyConfig(Arch::Compresso);
    cfg.placementAccesses = 40'000;
    cfg.warmAccesses = 20'000;
    cfg.measureAccesses = 40'000;
    System comp(cfg);
    const SimResult rc = comp.measure();
    cfg.arch = Arch::Tmcc;
    System tmcc(cfg);
    const SimResult rt = tmcc.measure();

    // Iso-savings (Fig. 17): similar DRAM usage, higher performance.
    EXPECT_NEAR(rt.compressionRatio(), rc.compressionRatio(),
                rc.compressionRatio() * 0.25);
    EXPECT_GT(rt.accessesPerNs(), rc.accessesPerNs());
    EXPECT_LT(rt.avgL3MissLatencyNs, rc.avgL3MissLatencyNs);
}

TEST(System, TmccNoSlowerThanBarebone)
{
    System bb(tinyConfig(Arch::Barebone));
    const SimResult r1 = bb.measure();
    System tm(tinyConfig(Arch::Tmcc));
    const SimResult r2 = tm.measure();
    EXPECT_GE(r2.accessesPerNs(), r1.accessesPerNs() * 0.98);
}

TEST(System, TlbAndWalksHappen)
{
    System sys(tinyConfig(Arch::Tmcc));
    const SimResult r = sys.measure();
    EXPECT_GT(r.tlbMisses, 0u);
    EXPECT_GT(r.stats.get("core0.walker.walks"), 0.0);
    EXPECT_GT(r.stats.get("core0.walker.pwc.hits"), 0.0);
}

TEST(System, CteMissesFollowTlbMisses)
{
    // §V-A1 / Fig. 5: most CTE misses follow TLB misses.
    System sys(tinyConfig(Arch::Tmcc, "mcf"));
    const SimResult r = sys.measure();
    ASSERT_GT(r.cteMisses, 0u);
    EXPECT_GT(static_cast<double>(r.cteMissesAfterTlbMiss) /
                  static_cast<double>(r.cteMisses),
              0.5);
}

TEST(System, EmbeddedCtesProduceParallelAccesses)
{
    System sys(tinyConfig(Arch::Tmcc, "mcf"));
    const SimResult r = sys.measure();
    EXPECT_GT(r.ml1Parallel, 0u);
    // Barebone never uses the parallel path.
    System bb(tinyConfig(Arch::Barebone, "mcf"));
    const SimResult rb = bb.measure();
    EXPECT_EQ(rb.ml1Parallel, 0u);
}

TEST(System, DeterministicAcrossRuns)
{
    System a(tinyConfig(Arch::Tmcc));
    System b(tinyConfig(Arch::Tmcc));
    const SimResult ra = a.measure();
    const SimResult rb = b.measure();
    EXPECT_EQ(ra.accesses, rb.accesses);
    EXPECT_EQ(ra.elapsed, rb.elapsed);
    EXPECT_EQ(ra.llcMisses, rb.llcMisses);
    EXPECT_EQ(ra.cteMisses, rb.cteMisses);
}

TEST(System, HugePagesReduceTlbMisses)
{
    SimConfig small = tinyConfig(Arch::NoCompression, "mcf");
    System sys4k(small);
    const SimResult r4k = sys4k.measure();

    SimConfig huge = small;
    huge.hugePages = true;
    System sys2m(huge);
    const SimResult r2m = sys2m.measure();

    EXPECT_LT(r2m.tlbMisses, r4k.tlbMisses / 2 + 1);
}

TEST(System, HugePagesDisableMl1Embedding)
{
    // §VIII: PTBs for huge pages cover 16MB; CTEs don't fit, so the
    // parallel-access path disappears while ML2 still works.
    SimConfig cfg = tinyConfig(Arch::Tmcc, "mcf");
    cfg.hugePages = true;
    System sys(cfg);
    const SimResult r = sys.measure();
    EXPECT_EQ(r.ml1Parallel, 0u);
}

TEST(System, BudgetFractionControlsCapacity)
{
    SimConfig loose = tinyConfig(Arch::Tmcc);
    loose.dramBudgetFraction = 0.9;
    System a(loose);
    const SimResult ra = a.measure();

    SimConfig tight = tinyConfig(Arch::Tmcc);
    tight.dramBudgetFraction = 0.55;
    System b(tight);
    const SimResult rb = b.measure();

    EXPECT_GT(rb.compressionRatio(), ra.compressionRatio());
    EXPECT_GT(rb.ml2Accesses, ra.ml2Accesses);
}

TEST(System, StorePerformanceMetricPopulated)
{
    System sys(tinyConfig(Arch::NoCompression, "canneal"));
    const SimResult r = sys.measure();
    EXPECT_GT(r.storeAccesses, 0u);
    EXPECT_GT(r.storesPerCycle(), 0.0);
}

TEST(System, BandwidthUtilizationBounded)
{
    System sys(tinyConfig(Arch::NoCompression, "stream"));
    const SimResult r = sys.measure();
    EXPECT_GT(r.readBusUtil + r.writeBusUtil, 0.005);
    EXPECT_LT(r.readBusUtil + r.writeBusUtil, 1.2);
}

TEST(System, SysStatsMatchHeadlineCounters)
{
    System sys(tinyConfig(Arch::Tmcc));
    const SimResult r = sys.measure();
    EXPECT_DOUBLE_EQ(r.stats.getRequired("sys.accesses"),
                     static_cast<double>(r.accesses));
    EXPECT_DOUBLE_EQ(r.stats.getRequired("sys.llc_misses"),
                     static_cast<double>(r.llcMisses));
    EXPECT_DOUBLE_EQ(r.stats.getRequired("sys.cte_misses"),
                     static_cast<double>(r.cteMisses));
    EXPECT_DOUBLE_EQ(r.stats.getRequired("sys.dram_used_bytes"),
                     static_cast<double>(r.dramUsedBytes));
    // The latency histograms export through the same dump.
    EXPECT_GT(r.stats.getRequired("sys.l3_miss_latency.count"), 0.0);
    EXPECT_GT(r.stats.getRequired("sys.page_walk_latency.count"), 0.0);
}

TEST(System, EpochsDisabledByDefault)
{
    System sys(tinyConfig(Arch::Tmcc));
    EXPECT_TRUE(sys.measure().epochs.empty());
}

TEST(System, EpochDeltasSumToRunTotals)
{
    SimConfig cfg = tinyConfig(Arch::Tmcc);
    cfg.statsInterval = 5'000;
    System sys(cfg);
    const SimResult r = sys.measure();

    ASSERT_GT(r.epochs.size(), 2u);
    std::uint64_t acc = 0;
    double llc = 0.0, ml2 = 0.0, walks = 0.0;
    Tick prev_end = 0;
    for (const EpochStat &e : r.epochs) {
        acc += e.deltaAccesses;
        llc += e.delta.getRequired("sys.llc_misses");
        ml2 += e.delta.getRequired("sys.ml2_accesses");
        walks += e.delta.getRequired("core0.walker.walks");
        EXPECT_GE(e.endTick, prev_end); // monotonic epoch boundaries
        prev_end = e.endTick;
        EXPECT_GE(e.cteHitRate, 0.0);
        EXPECT_LE(e.cteHitRate, 1.0);
    }
    // The final (partial) epoch is flushed after the drain, so the
    // per-epoch deltas reproduce the end-of-run totals exactly.
    EXPECT_EQ(acc, r.accesses);
    EXPECT_EQ(r.epochs.back().accesses, r.accesses);
    EXPECT_DOUBLE_EQ(llc, static_cast<double>(r.llcMisses));
    EXPECT_DOUBLE_EQ(ml2, static_cast<double>(r.ml2Accesses));
    // Component counters run from process start, so their epoch sum
    // covers only the measured window: positive, bounded by the total.
    EXPECT_GT(walks, 0.0);
    EXPECT_LE(walks, r.stats.getRequired("core0.walker.walks"));
    // The absolute gauge tracks the final usage.
    EXPECT_DOUBLE_EQ(r.epochs.back().dramUsedBytes,
                     static_cast<double>(r.dramUsedBytes));
}

TEST(System, TracingDoesNotPerturbResults)
{
    // Tracing only reads simulator state: a traced run must produce
    // exactly the same timing and counters as an untraced one.
    System plain(tinyConfig(Arch::Tmcc));
    const SimResult rp = plain.measure();

    const std::string path =
        ::testing::TempDir() + "system_trace_test.json";
    std::remove(path.c_str());
    SimResult rt;
    {
        Tracer tracer(path);
        Tracer::setActive(&tracer);
        System traced(tinyConfig(Arch::Tmcc));
        rt = traced.measure();
        Tracer::setActive(nullptr);
        EXPECT_TRUE(tracer.finish());
        EXPECT_GT(tracer.eventCount(), 0u);
    }
    // Each setup phase left its wall-clock span.
    std::string trace;
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        char buf[4096];
        for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;)
            trace.append(buf, n);
        std::fclose(f);
    }
    for (const char *span :
         {"setup.codecs", "setup.map", "setup.touch", "setup.place"})
        EXPECT_NE(trace.find(std::string("\"") + span + "\""),
                  std::string::npos)
            << span;
    std::remove(path.c_str());

    EXPECT_EQ(rp.accesses, rt.accesses);
    EXPECT_EQ(rp.elapsed, rt.elapsed);
    EXPECT_EQ(rp.llcMisses, rt.llcMisses);
    EXPECT_EQ(rp.tlbMisses, rt.tlbMisses);
    EXPECT_EQ(rp.cteMisses, rt.cteMisses);
    EXPECT_EQ(rp.ml2Accesses, rt.ml2Accesses);
    EXPECT_EQ(rp.dramUsedBytes, rt.dramUsedBytes);
    ASSERT_EQ(rp.stats.all().size(), rt.stats.all().size());
    for (const auto &[name, v] : rp.stats.all())
        EXPECT_DOUBLE_EQ(v, rt.stats.getRequired(name)) << name;
}

TEST(System, WarmPlacementBreaksTiesByVpn)
{
    // Reference: the same per-core streams drawn serially and counted
    // into an ordered map, then sorted by (count desc, VPN asc).
    const SimConfig cfg = tinyConfig(Arch::Tmcc);
    std::map<Vpn, std::uint32_t> touches;
    for (unsigned c = 0; c < cfg.cores; ++c) {
        auto wl = makeWorkload(cfg.workload, c, cfg.cores, cfg.scale,
                               cfg.seed);
        for (std::uint64_t i = 0; i < cfg.placementAccesses; ++i)
            ++touches[pageNumber(wl->next().vaddr)];
    }
    std::vector<std::pair<std::uint32_t, Vpn>> order;
    for (const auto &[vpn, count] : touches)
        order.emplace_back(count, vpn);
    std::stable_sort(order.begin(), order.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    std::vector<Vpn> expected;
    unsigned ties = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        expected.push_back(order[i].second);
        ties += i > 0 && order[i].first == order[i - 1].first;
    }
    ASSERT_GT(ties, 0u) << "no equal counts: the case tests nothing";

    System sys(cfg);
    EXPECT_EQ(SystemTestPeer::hotPages(sys), expected);
}

TEST(System, SetupFramesMatchTheWalk)
{
    // The frame table is filled where frames are allocated; the page
    // table walk (through the host table in nested mode) is the
    // reference for every region page.
    for (const auto &[nested, huge] :
         {std::pair{false, false}, std::pair{false, true},
          std::pair{true, false}, std::pair{true, true}}) {
        SCOPED_TRACE(std::string(nested ? "nested" : "native") +
                     (huge ? " 2MB" : " 4KB"));
        SimConfig cfg = tinyConfig(Arch::Tmcc);
        cfg.nestedPaging = nested;
        cfg.hugePages = huge;
        System sys(cfg);
        const std::vector<Ppn> &frames = SystemTestPeer::frames(sys);
        ASSERT_EQ(frames.size(), sys.footprintBytes() / pageSize);
        for (std::uint64_t i = 0; i < frames.size(); ++i) {
            const Vpn vpn = SystemTestPeer::vpnOf(sys, i);
            WalkResult w = sys.pageTable().walk(vpn << pageShift);
            ASSERT_TRUE(w.valid) << "vpn " << vpn;
            ASSERT_EQ(w.huge, huge);
            if (nested) {
                w = SystemTestPeer::hostTable(sys).walk(w.ppn << pageShift);
                ASSERT_TRUE(w.valid) << "vpn " << vpn;
            }
            ASSERT_EQ(frames[i], w.ppn) << "vpn " << vpn;
        }
        sys.setup();
        EXPECT_TRUE(SystemTestPeer::frames(sys).empty());
    }
}

/** A result's bytes, wall-clock fields zeroed (as the goldens do). */
std::vector<std::uint8_t>
resultBytes(SimResult res)
{
    res.setupSeconds = 0.0;
    res.measureSeconds = 0.0;
    ByteWriter w;
    serializeSimResult(w, res);
    return w.buffer();
}

TEST(System, SetupIndependentOfWorkerCount)
{
    // Cold setup (codec pass and touch-count run) on as many workers
    // as the host has, then on one: pages, placement and every
    // counter of the run must match.
    const SimConfig cfg = tinyConfig(Arch::Tmcc);
    ProfileLibrary::clearCache();
    System parallel(cfg);
    const std::vector<Vpn> hot_parallel = SystemTestPeer::hotPages(parallel);
    ProfileLibrary::clearCache();
    const SimResult r_parallel = System(cfg).measure();

    std::vector<Vpn> hot_inline;
    SimResult r_inline;
    {
        // Inside a worker every nested parallelFor runs inline.
        detail::ParallelWorkerScope one_worker;
        ASSERT_EQ(parallelWorkers(cfg.cores), 1u);
        ProfileLibrary::clearCache();
        System single(cfg);
        hot_inline = SystemTestPeer::hotPages(single);
        ProfileLibrary::clearCache();
        r_inline = System(cfg).measure();
    }
    EXPECT_FALSE(hot_parallel.empty());
    EXPECT_EQ(hot_parallel, hot_inline);
    EXPECT_EQ(resultBytes(r_parallel), resultBytes(r_inline));
}

} // namespace
} // namespace tmcc
