/** Property/fuzz tests: ML1/ML2 conservation under random traffic. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "tmcc/os_mc.hh"

namespace tmcc
{
namespace
{

class VariedInfo : public PageInfoProvider
{
  public:
    const PageProfile &
    profile(Ppn ppn) const override
    {
        // Deterministic per-page compressibility spanning every
        // sub-chunk class plus incompressible pages.
        static thread_local PageProfile p;
        const std::uint64_t h = ppn * 0x9e3779b97f4a7c15ULL;
        const unsigned bucket = (h >> 33) % 10;
        p = PageProfile{};
        p.deflateBytes =
            bucket == 9 ? pageSize
                        : static_cast<std::uint32_t>(200 + bucket * 330);
        p.blockBytes = 2500 + (h >> 40) % 1500;
        p.lzTokens = 1200;
        return p;
    }
};

class OsMcFuzz : public ::testing::TestWithParam<int>
{};

TEST_P(OsMcFuzz, LocationAndFrameConservation)
{
    DramSystem dram(DramConfig{}, InterleaveConfig{});
    PhysMem phys(1 << 18);
    VariedInfo info;
    OsMcConfig cfg;
    cfg.dramBudgetBytes = 24ULL << 20; // 6K frames: tight
    cfg.freeListLow = 128;
    cfg.freeListCritical = 64;
    cfg.evictBatch = 16;
    OsInspiredMc mc(dram, info, phys, cfg);

    Rng rng(GetParam());
    constexpr Ppn max_page = 7000;
    Tick t = 1000;

    for (int i = 0; i < 20000; ++i) {
        t += 10000 + rng.below(100000);
        const Ppn ppn = 1 + rng.zipf(max_page, 1.2);
        const Addr paddr =
            (ppn << pageShift) | (rng.below(blocksPerPage) * blockSize);
        if (rng.chance(0.25)) {
            mc.writeback(paddr, t, rng.chance(0.05));
        } else {
            McReadRequest req;
            req.paddr = paddr;
            req.when = t;
            const bool embedded = rng.chance(0.3);
            if (embedded) {
                // Sometimes correct, sometimes garbage (stale).
                const std::uint64_t cte = rng.chance(0.5)
                                              ? mc.truncatedCte(ppn)
                                              : rng.below(1 << 20);
                mc.cteBuffer(0).insert(ppn, true, cte, invalidAddr);
            }
            const McReadResponse resp = mc.read(req);
            ASSERT_GE(resp.complete, req.when);
            // A buffered CTE always matches the page's location AFTER
            // the access (ML2 hits migrate the page).
            const CteBuffer::Entry *e = mc.cteBuffer(0).lookup(ppn);
            ASSERT_TRUE(e != nullptr || !embedded);
            if (e != nullptr) {
                ASSERT_TRUE(e->hasCte);
                ASSERT_EQ(e->cte, mc.truncatedCte(ppn));
            }
        }
    }

    // Conservation: used bytes never exceed the seeded budget plus
    // any accounted overruns (the free-list floor and recency-list
    // overhead are the slack).
    EXPECT_LE(mc.dramUsedBytes(),
              cfg.dramBudgetBytes +
                  mc.budgetOverruns() * 64 * pageSize + (1ULL << 20));
}

TEST_P(OsMcFuzz, RepeatedMigrationCyclesStaySane)
{
    DramSystem dram(DramConfig{}, InterleaveConfig{});
    PhysMem phys(1 << 18);
    VariedInfo info;
    OsMcConfig cfg;
    cfg.dramBudgetBytes = 8ULL << 20;
    cfg.freeListLow = 64;
    cfg.freeListCritical = 32;
    OsInspiredMc mc(dram, info, phys, cfg);

    Rng rng(GetParam() + 31);
    Tick t = 1000;
    // Two alternating working sets larger than ML1 force continuous
    // eviction/migration cycles.
    for (int round = 0; round < 6; ++round) {
        const Ppn base = 1 + (round % 2) * 4000;
        for (Ppn p = base; p < base + 2500; ++p) {
            t += 200000;
            McReadRequest req;
            req.paddr = p << pageShift;
            req.when = t;
            const auto resp = mc.read(req);
            ASSERT_GE(resp.complete, t);
        }
    }
    StatDump d;
    mc.dumpStats(d, "mc");
    EXPECT_GT(d.get("mc.migrations_in"), 0.0);
    EXPECT_GT(d.get("mc.migrations_out"), 0.0);
    // Incompressible pages (bucket 9 = 10%) get retained, never cycled;
    // with 6 working sets x 10% pinned, the tight budget must overrun
    // gracefully rather than fail.
    EXPECT_GT(d.get("mc.incompressible_retained"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OsMcFuzz, ::testing::Range(0, 6));

} // namespace
} // namespace tmcc
