/** Tests for the Compresso baseline MC. */

#include <gtest/gtest.h>

#include "compresso/compresso_mc.hh"

namespace tmcc
{
namespace
{

class FixedInfo : public PageInfoProvider
{
  public:
    const PageProfile &
    profile(Ppn) const override
    {
        return prof_;
    }

    PageProfile prof_ = [] {
        PageProfile p;
        p.blockBytes = 2800; // -> 6 chunks of 512B
        p.deflateBytes = 1300;
        p.overflowP = 0.5; // high churn for repack tests
        return p;
    }();
};

class CompressoTest : public ::testing::Test
{
  protected:
    CompressoTest() : dram_(DramConfig{}, InterleaveConfig{})
    {
        mc_ = std::make_unique<CompressoMc>(dram_, info_,
                                            CompressoConfig{});
    }

    McReadRequest
    readReq(Ppn ppn, Tick when = 1000)
    {
        McReadRequest req;
        req.paddr = (ppn << pageShift) | 0x80;
        req.when = when;
        return req;
    }

    DramSystem dram_;
    FixedInfo info_;
    std::unique_ptr<CompressoMc> mc_;
};

TEST_F(CompressoTest, RegistrationAllocatesChunks)
{
    mc_->placePage(5);
    // 2800B -> 6 chunks -> 3072B.
    EXPECT_EQ(mc_->dramUsedBytes(), 6u * 512u);
    mc_->placePage(5); // idempotent
    EXPECT_EQ(mc_->dramUsedBytes(), 6u * 512u);
}

TEST_F(CompressoTest, UnregisteredPageFarAboveAutoRegisters)
{
    mc_->placePage(5);
    // The page table is indexed by Ppn: touching a page far above every
    // registered one grows it and registers the page on the way.
    constexpr Ppn far = 100000;
    mc_->read(readReq(far));
    EXPECT_EQ(mc_->dramUsedBytes(), 2u * 6u * 512u);
    mc_->writeback((far << pageShift) | 0x40, 5000, false);
    StatDump d;
    mc_->dumpStats(d, "mc");
    // A repack of a page at its packed size grows it by one chunk.
    EXPECT_EQ(mc_->dramUsedBytes(),
              (2u * 6u + static_cast<unsigned>(d.get("mc.repacks"))) *
                  512u);
    const std::uint64_t used = mc_->dramUsedBytes();
    mc_->placePage(far); // already registered
    mc_->placePage(5);
    EXPECT_EQ(mc_->dramUsedBytes(), used);
    mc_->placePage(6); // below the grown end, still unregistered
    EXPECT_EQ(mc_->dramUsedBytes(), used + 6u * 512u);
}

TEST_F(CompressoTest, CteHitIsSingleAccess)
{
    mc_->placePage(5);
    mc_->cteCache().insert(5);
    const McReadResponse r = mc_->read(readReq(5));
    EXPECT_TRUE(r.cteCacheHit);
    EXPECT_LT(ticksToNs(r.complete - 1000), 45.0);
}

TEST_F(CompressoTest, CteMissSerializesMetadataThenData)
{
    mc_->placePage(5);
    const McReadResponse r = mc_->read(readReq(5));
    EXPECT_FALSE(r.cteCacheHit);
    EXPECT_TRUE(r.serializedNoCte);
    EXPECT_GT(ticksToNs(r.complete - 1000), 55.0);
    // The CTE is cached afterwards.
    const McReadResponse r2 = mc_->read(readReq(5, 10000));
    EXPECT_TRUE(r2.cteCacheHit);
}

TEST_F(CompressoTest, WritebacksTriggerRepacksOverTime)
{
    mc_->placePage(5);
    for (int i = 0; i < 200; ++i)
        mc_->writeback((5ULL << pageShift) | (i % 64) * 64,
                       1000 + i * 100, false);
    StatDump d;
    mc_->dumpStats(d, "mc");
    EXPECT_GT(d.get("mc.repacks"), 10.0);
    EXPECT_GT(d.get("mc.cte_writes"), 10.0);
    // Usage stays near the profile's packed size.
    EXPECT_NEAR(d.get("mc.dram_used_bytes"), 6.0 * 512, 2 * 512);
}

TEST_F(CompressoTest, LlcVictimModeChangesMissPath)
{
    CompressoConfig cfg;
    cfg.cteVictimInLlc = true;
    CompressoMc mc(dram_, info_, cfg);
    mc.placePage(7);
    // First miss: victim miss -> DRAM fetch delayed by the LLC probe.
    const McReadResponse r1 = mc.read(readReq(7));
    EXPECT_FALSE(r1.cteCacheHit);
    StatDump d;
    mc.dumpStats(d, "mc");
    EXPECT_EQ(d.get("mc.llc_victim_misses"), 1.0);
}

TEST_F(CompressoTest, BlocksOfPageLandInItsChunks)
{
    // Different blocks of one page must map inside the page's packed
    // allocation (distinct addresses, bounded span).
    mc_->placePage(9);
    const McReadResponse a = mc_->read(readReq(9));
    (void)a;
    // No crash + bounded usage is the observable contract here.
    EXPECT_EQ(mc_->dramUsedBytes(), 6u * 512u);
}

TEST_F(CompressoTest, BackgroundReadOnlyTouchesCte)
{
    mc_->placePage(5);
    McReadRequest req = readReq(5);
    req.background = true;
    const McReadResponse r = mc_->read(req);
    EXPECT_EQ(r.complete, req.when);
    EXPECT_TRUE(mc_->read(readReq(5, 9000)).cteCacheHit);
}

} // namespace
} // namespace tmcc
