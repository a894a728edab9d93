/** Tests for the OS-inspired / TMCC memory controller. */

#include <gtest/gtest.h>

#include "tmcc/os_mc.hh"
#include "vm/page_table.hh"

namespace tmcc
{
namespace
{

/** Fixed-profile provider. */
class FakeInfo : public PageInfoProvider
{
  public:
    const PageProfile &
    profile(Ppn ppn) const override
    {
        auto it = special_.find(ppn);
        return it == special_.end() ? default_ : it->second;
    }

    PageProfile default_ = [] {
        PageProfile p;
        p.blockBytes = 3000;
        p.deflateBytes = 1400; // 1536B class
        p.lzTokens = 1500;
        return p;
    }();
    std::unordered_map<Ppn, PageProfile> special_;
};

class OsMcTest : public ::testing::Test
{
  protected:
    OsMcTest()
        : dram_(DramConfig{}, InterleaveConfig{}), phys_(100000),
          table_(phys_)
    {
        cfg_.dramBudgetBytes = 40ULL << 20; // 10K frames
        cfg_.freeListLow = 64;
        cfg_.freeListCritical = 32;
        cfg_.ml1TargetPages = 4096;
        mc_ = std::make_unique<OsInspiredMc>(dram_, info_, phys_, cfg_);
    }

    McReadRequest
    readReq(Ppn ppn, Tick when = 1000)
    {
        McReadRequest req;
        req.paddr = ppn << pageShift;
        req.when = when;
        return req;
    }

    /**
     * Map vpns 0..7 to ppns 100..107 and place those pages in `mc`;
     * returns the address of the leaf PTB holding the eight PTEs.
     */
    Addr
    mapLeafPtb(OsInspiredMc &mc)
    {
        PteFlags f;
        f.accessed = true;
        f.dirty = true;
        for (Vpn v = 0; v < ptesPerPtb; ++v)
            table_.map(v, 100 + v, f);
        for (Ppn p = 100; p < 100 + ptesPerPtb; ++p)
            mc.placePage(p);
        return table_.walk(0).steps.back().ptbAddr;
    }

    /**
     * Push page `p` into ML2: make it the coldest ML1 page, then place
     * enough new pages to force evictions (needs an unbounded
     * ml1TargetPages).
     */
    void
    evictToMl2(OsInspiredMc &mc, Ppn p)
    {
        mc.recency().remove(p);
        mc.recency().insertCold(p);
        const std::uint64_t frames = cfg_.dramBudgetBytes / pageSize;
        for (Ppn q = 10000; q < 10000 + frames + 512; ++q)
            mc.placePage(q);
        ASSERT_TRUE(mc.inMl2(p));
    }

    DramSystem dram_;
    PhysMem phys_;
    PageTable table_;
    FakeInfo info_;
    OsMcConfig cfg_;
    std::unique_ptr<OsInspiredMc> mc_;
};

TEST_F(OsMcTest, HottestFirstPlacement)
{
    // First pages go to ML1; after the target, pages compress to ML2.
    for (Ppn p = 1; p <= 4096; ++p)
        mc_->placePage(p);
    EXPECT_FALSE(mc_->inMl2(1));
    for (Ppn p = 5000; p < 5010; ++p)
        mc_->placePage(p);
    EXPECT_TRUE(mc_->inMl2(5005));
}

TEST_F(OsMcTest, Ml1ReadCteHitSingleDramAccess)
{
    mc_->placePage(1);
    mc_->cteCache().insert(1);
    const McReadResponse r = mc_->read(readReq(1));
    EXPECT_TRUE(r.cteCacheHit);
    EXPECT_FALSE(r.hitMl2);
    // One DRAM access: ~30-35ns after the request.
    EXPECT_LT(ticksToNs(r.complete - 1000), 40.0);
}

TEST_F(OsMcTest, Ml1CteMissWithoutEmbeddedIsSerial)
{
    mc_->placePage(1);
    const McReadResponse r = mc_->read(readReq(1));
    EXPECT_FALSE(r.cteCacheHit);
    EXPECT_TRUE(r.serializedNoCte);
    // Two serial DRAM accesses: > 50ns.
    EXPECT_GT(ticksToNs(r.complete - 1000), 50.0);
}

TEST_F(OsMcTest, EmbeddedCteEnablesParallelAccess)
{
    // Same page, fresh MCs on fresh channels: serial vs parallel.
    DramSystem serial_dram(DramConfig{}, InterleaveConfig{});
    OsInspiredMc serial_mc(serial_dram, info_, phys_, cfg_);
    serial_mc.placePage(1);
    const McReadResponse rs = serial_mc.read(readReq(1));
    ASSERT_TRUE(rs.serializedNoCte);

    mc_->placePage(1);
    mc_->cteBuffer(0).insert(1, true, mc_->truncatedCte(1), invalidAddr);
    const McReadResponse r = mc_->read(readReq(1));
    EXPECT_TRUE(r.parallelAccess);
    EXPECT_FALSE(r.embeddedMismatch);
    // Parallel access completes no later than the serial path and
    // typically much earlier (Fig. 8b vs 8a).
    EXPECT_LE(r.complete, rs.complete);
}

TEST_F(OsMcTest, StaleEmbeddedCteReaccessesSerially)
{
    mc_->placePage(1);
    mc_->cteBuffer(0).insert(1, true, mc_->truncatedCte(1) + 7, // wrong
                             invalidAddr);
    const McReadResponse r = mc_->read(readReq(1));
    EXPECT_TRUE(r.embeddedMismatch);
    EXPECT_GT(ticksToNs(r.complete - 1000), 55.0);
    // The response put the correct CTE back into the buffer.
    const CteBuffer::Entry *e = mc_->cteBuffer(0).lookup(1);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->hasCte);
    EXPECT_EQ(e->cte, mc_->truncatedCte(1));
}

TEST_F(OsMcTest, Ml2ReadDecompressesAndMigrates)
{
    for (Ppn p = 1; p <= 4096; ++p)
        mc_->placePage(p);
    mc_->placePage(9000);
    ASSERT_TRUE(mc_->inMl2(9000));

    const McReadResponse r = mc_->read(readReq(9000));
    EXPECT_TRUE(r.hitMl2);
    // Deflate decompression to the requested block dominates: the
    // fast ASIC takes ~30-300ns depending on the offset.
    EXPECT_GT(ticksToNs(r.complete - 1000), 20.0);
    // The page migrated to ML1.
    EXPECT_FALSE(mc_->inMl2(9000));
}

TEST_F(OsMcTest, IbmDeflateIsSlowerForMl2Reads)
{
    OsMcConfig slow = cfg_;
    slow.fastDeflate = false;
    OsInspiredMc ibm_mc(dram_, info_, phys_, slow);
    OsInspiredMc fast_mc(dram_, info_, phys_, cfg_);
    for (Ppn p = 1; p <= 4097; ++p) {
        ibm_mc.placePage(p);
        fast_mc.placePage(p);
    }
    mc_->placePage(9000);
    ibm_mc.placePage(9000);
    fast_mc.placePage(9000);
    McReadRequest req = readReq(9000, 100000);
    req.paddr |= 64; // an early block in the page
    const Tick ibm = ibm_mc.read(req).complete;
    const Tick fast = fast_mc.read(req).complete;
    // IBM pays its >800ns setup; ours is several times faster (§V-B).
    EXPECT_GT(ticksToNs(ibm - 100000), 800.0);
    EXPECT_LT(ticksToNs(fast - 100000),
              ticksToNs(ibm - 100000) / 2.0);
}

TEST_F(OsMcTest, IncompressiblePageRetainedInMl1)
{
    PageProfile incompressible;
    incompressible.deflateBytes = pageSize;
    incompressible.blockBytes = pageSize;
    info_.special_[42] = incompressible;
    mc_->placePage(42);
    EXPECT_FALSE(mc_->inMl2(42));
    // It must not sit on the recency list (never recompressed).
    EXPECT_FALSE(mc_->recency().contains(42));
}

TEST_F(OsMcTest, EvictionMovesColdPagesToMl2)
{
    // Unbounded placement target: ML1 fills to the free-list floor,
    // then ML2 growth drains the floor and eviction kicks in.
    OsMcConfig cfg = cfg_;
    cfg.ml1TargetPages = ~0ULL;
    OsInspiredMc mc(dram_, info_, phys_, cfg);
    const std::uint64_t frames = cfg.dramBudgetBytes / pageSize;
    for (Ppn p = 1; p <= frames + 512; ++p)
        mc.placePage(p);
    // The earliest-placed (coldest) pages must have left for ML2.
    unsigned in_ml2 = 0;
    for (Ppn p = 1; p <= 256; ++p)
        in_ml2 += mc.inMl2(p);
    EXPECT_GT(in_ml2, 0u);
}

TEST_F(OsMcTest, PtbViewEmbedsCurrentCtes)
{
    const auto view = mc_->ptbView(mapLeafPtb(*mc_));
    ASSERT_TRUE(view.compressed);
    for (unsigned i = 0; i < ptesPerPtb; ++i) {
        ASSERT_TRUE(view.present[i]);
        EXPECT_TRUE(view.hasCte[i]);
        EXPECT_EQ(view.cte[i], mc_->truncatedCte(100 + i));
    }
}

TEST_F(OsMcTest, PtbViewGoesStaleAfterMigrationUntilLazyUpdate)
{
    OsMcConfig cfg = cfg_;
    cfg.ml1TargetPages = ~0ULL; // allow the free-list floor to drain
    mc_ = std::make_unique<OsInspiredMc>(dram_, info_, phys_, cfg);

    const Addr ptb = mapLeafPtb(*mc_);
    const auto before = mc_->ptbView(ptb);
    ASSERT_TRUE(before.compressed);
    const std::uint64_t old_cte = before.cte[0];

    // Force page 100 into ML2 and back: its frame changes.
    evictToMl2(*mc_, 100);
    mc_->read(readReq(100, 50000)); // migrates back at a new frame

    const auto after = mc_->ptbView(ptb);
    ASSERT_TRUE(after.compressed);
    // The embedded value was NOT updated at migration time (lazy).
    EXPECT_EQ(after.cte[0], old_cte);
    EXPECT_NE(mc_->truncatedCte(100), old_cte);

    // The lazy update path fixes it.
    mc_->lazyUpdatePtb(ptb, 100, mc_->truncatedCte(100));
    const auto fixed = mc_->ptbView(ptb);
    EXPECT_EQ(fixed.cte[0], mc_->truncatedCte(100));
}

TEST_F(OsMcTest, WalkerFetchFillsOnlyThatCoresBuffer)
{
    OsMcConfig cfg = cfg_;
    cfg.cores = 2;
    OsInspiredMc mc(dram_, info_, phys_, cfg);
    const Addr ptb = mapLeafPtb(mc);

    EXPECT_TRUE(mc.walkerFetched(1, ptb));
    for (Ppn p = 100; p < 100 + ptesPerPtb; ++p) {
        const CteBuffer::Entry *e = mc.cteBuffer(1).lookup(p);
        ASSERT_NE(e, nullptr);
        EXPECT_TRUE(e->hasCte);
        EXPECT_EQ(e->cte, mc.truncatedCte(p));
        EXPECT_EQ(e->ptbAddr, ptb);
        EXPECT_EQ(mc.cteBuffer(0).lookup(p), nullptr);
    }
}

TEST_F(OsMcTest, WalkerFetchWithoutEmbeddingHarvestsNothing)
{
    OsMcConfig cfg = cfg_;
    cfg.embedCtes = false;
    OsInspiredMc mc(dram_, info_, phys_, cfg);
    EXPECT_FALSE(mc.walkerFetched(0, mapLeafPtb(mc)));

    StatDump d;
    mc.dumpStats(d, "mc");
    mc.dumpCoreStats(d, 0, "core0");
    EXPECT_EQ(d.get("mc.ptb_compressed_fetches"), 0.0);
    EXPECT_EQ(d.get("mc.ptb_incompressible_fetches"), 0.0);
    EXPECT_FALSE(d.has("core0.cte_buffer.inserts"));
}

TEST_F(OsMcTest, HarvestedPageDemandReadIsParallel)
{
    mc_->walkerFetched(0, mapLeafPtb(*mc_));
    const McReadResponse r = mc_->read(readReq(103));
    EXPECT_FALSE(r.cteCacheHit);
    EXPECT_TRUE(r.parallelAccess);
    EXPECT_EQ(r.stalePtb, invalidAddr);
}

TEST_F(OsMcTest, BackgroundReadDoesNotProbeTheBuffer)
{
    mc_->walkerFetched(0, mapLeafPtb(*mc_));
    StatDump before;
    mc_->dumpCoreStats(before, 0, "core0");

    McReadRequest req = readReq(103);
    req.background = true;
    mc_->read(req);

    StatDump after;
    mc_->dumpCoreStats(after, 0, "core0");
    EXPECT_EQ(after.get("core0.cte_buffer.hits"),
              before.get("core0.cte_buffer.hits"));
    EXPECT_EQ(after.get("core0.cte_buffer.misses"),
              before.get("core0.cte_buffer.misses"));
}

TEST_F(OsMcTest, ReadAfterMigrationLazilyUpdatesHarvestedPtb)
{
    OsMcConfig cfg = cfg_;
    cfg.ml1TargetPages = ~0ULL; // allow the free-list floor to drain
    mc_ = std::make_unique<OsInspiredMc>(dram_, info_, phys_, cfg);
    const Addr ptb = mapLeafPtb(*mc_);
    ASSERT_TRUE(mc_->walkerFetched(0, ptb));
    const std::uint64_t old_cte = mc_->truncatedCte(100);

    evictToMl2(*mc_, 100);
    const McReadResponse r = mc_->read(readReq(100, 50000));
    ASSERT_NE(mc_->truncatedCte(100), old_cte); // migrated: new frame
    EXPECT_EQ(r.stalePtb, ptb);
    EXPECT_EQ(mc_->ptbView(ptb).cte[0], mc_->truncatedCte(100));
    const CteBuffer::Entry *e = mc_->cteBuffer(0).lookup(100);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->cte, mc_->truncatedCte(100));
}

TEST_F(OsMcTest, PtbShadowIsPerPtbWithinOnePageTablePage)
{
    OsMcConfig cfg = cfg_;
    cfg.ml1TargetPages = ~0ULL; // allow the free-list floor to drain
    mc_ = std::make_unique<OsInspiredMc>(dram_, info_, phys_, cfg);

    // Two PTBs of one leaf page-table page: vpns 0..7 -> ppns 100..107
    // (fetched by the walker) and vpns 8..15 -> ppns 200..207 (never).
    const Addr fetched = mapLeafPtb(*mc_);
    PteFlags f;
    f.accessed = true;
    f.dirty = true;
    for (Vpn v = ptesPerPtb; v < 2 * ptesPerPtb; ++v)
        table_.map(v, 200 + v - ptesPerPtb, f);
    for (Ppn p = 200; p < 200 + ptesPerPtb; ++p)
        mc_->placePage(p);
    const Addr unfetched =
        table_.walk(Addr{ptesPerPtb} << pageShift).steps.back().ptbAddr;
    ASSERT_EQ(pageNumber(unfetched), pageNumber(fetched));
    ASSERT_EQ(unfetched, fetched + blockSize);
    ASSERT_TRUE(mc_->walkerFetched(0, fetched));

    // Page 200 moves to a new frame before its PTB is ever compressed.
    const std::uint64_t old_cte = mc_->truncatedCte(200);
    evictToMl2(*mc_, 200);
    mc_->read(readReq(200, 50000));
    ASSERT_NE(mc_->truncatedCte(200), old_cte);

    StatDump before;
    mc_->dumpStats(before, "mc");

    // A lazy update naming the never-compressed PTB is a no-op ...
    mc_->lazyUpdatePtb(unfetched, 200, old_cte);
    // ... and so is one naming a data page.
    mc_->lazyUpdatePtb(Addr{100} << pageShift, 100, old_cte);
    EXPECT_FALSE(mc_->ptbView(Addr{100} << pageShift).compressed);

    StatDump after;
    mc_->dumpStats(after, "mc");
    EXPECT_EQ(after.get("mc.lazy_ptb_updates"),
              before.get("mc.lazy_ptb_updates"));

    // The unfetched PTB's first view still embeds the current CTEs.
    const auto view = mc_->ptbView(unfetched);
    ASSERT_TRUE(view.compressed);
    for (unsigned i = 0; i < ptesPerPtb; ++i) {
        ASSERT_TRUE(view.present[i]);
        EXPECT_EQ(view.ppns[i], 200 + i);
        EXPECT_TRUE(view.hasCte[i]);
        EXPECT_EQ(view.cte[i], mc_->truncatedCte(200 + i));
    }
}

TEST_F(OsMcTest, WrittenBackMl1PageStaysInMl1)
{
    mc_->placePage(1);
    const Addr block0 = (1ULL << pageShift);
    mc_->writeback(block0, 2000, /*line_compressed=*/true);
    EXPECT_FALSE(mc_->inMl2(1));
    mc_->writeback(block0, 3000, false);
    EXPECT_FALSE(mc_->inMl2(1));
}

TEST_F(OsMcTest, DramUsageTracksBudgetShape)
{
    for (Ppn p = 1; p <= 2000; ++p)
        mc_->placePage(p);
    const std::uint64_t used = mc_->dramUsedBytes();
    EXPECT_GT(used, 2000ULL * 1024);
    EXPECT_LE(used, cfg_.dramBudgetBytes + (4ULL << 20));
}

TEST_F(OsMcTest, BackgroundReadTouchesOnlyCteCache)
{
    mc_->placePage(1);
    McReadRequest req = readReq(1);
    req.background = true;
    const McReadResponse r = mc_->read(req);
    EXPECT_EQ(r.complete, req.when);
    // The CTE is now cached for subsequent demand reads.
    const McReadResponse r2 = mc_->read(readReq(1, 5000));
    EXPECT_TRUE(r2.cteCacheHit);
}

} // namespace
} // namespace tmcc
