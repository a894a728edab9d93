/** Tests for the 3-level hierarchy: inclusion, exclusion, walker path. */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"

namespace tmcc
{
namespace
{

HierarchyConfig
smallConfig()
{
    HierarchyConfig cfg;
    cfg.l1Bytes = 1024;
    cfg.l1Assoc = 2;
    cfg.l2Bytes = 4096;
    cfg.l2Assoc = 4;
    cfg.l3Bytes = 16384;
    cfg.l3Assoc = 4;
    cfg.prefetchers = false;
    return cfg;
}

TEST(Hierarchy, MissThenHitAtL1)
{
    Hierarchy h(smallConfig(), 1);
    auto out = h.accessT<SmallOutcome>(0, 0x1000, false, false);
    EXPECT_EQ(out.level, HitLevel::Memory);
    h.fillT<SmallOutcome>(0, 0x1000, false, false, false);
    out = h.accessT<SmallOutcome>(0, 0x1000, false, false);
    EXPECT_EQ(out.level, HitLevel::L1);
}

TEST(Hierarchy, FillPopulatesL2Inclusive)
{
    Hierarchy h(smallConfig(), 1);
    h.accessT<SmallOutcome>(0, 0x1000, false, false);
    h.fillT<SmallOutcome>(0, 0x1000, false, false, false);
    EXPECT_TRUE(h.l1(0).probe(0x1000));
    EXPECT_TRUE(h.l2(0).probe(0x1000)); // inclusive
    EXPECT_FALSE(h.l3().probe(0x1000)); // exclusive: bypassed on fill
}

TEST(Hierarchy, L2EvictionGoesToL3)
{
    Hierarchy h(smallConfig(), 1);
    // Fill more lines than L2 holds in one set; evictions land in L3.
    // L2: 16 sets... walk one set: stride = 4096 (sets*64... L2 has 16
    // sets, so stride 16*64=1024).
    for (int i = 0; i < 6; ++i) {
        const Addr a = 0x10000 + static_cast<Addr>(i) * 1024;
        h.accessT<SmallOutcome>(0, a, false, false);
        h.fillT<SmallOutcome>(0, a, false, false, false);
    }
    // The oldest lines must have spilled into L3.
    bool any_in_l3 = false;
    for (int i = 0; i < 6; ++i)
        any_in_l3 |= h.l3().probe(0x10000 + static_cast<Addr>(i) * 1024);
    EXPECT_TRUE(any_in_l3);
}

TEST(Hierarchy, L3HitPromotesAndRemoves)
{
    Hierarchy h(smallConfig(), 1);
    for (int i = 0; i < 6; ++i) {
        const Addr a = 0x10000 + static_cast<Addr>(i) * 1024;
        h.accessT<SmallOutcome>(0, a, false, false);
        h.fillT<SmallOutcome>(0, a, false, false, false);
    }
    // Find a line in L3 and access it: exclusive promotion.
    Addr victim = invalidAddr;
    for (int i = 0; i < 6; ++i) {
        const Addr a = 0x10000 + static_cast<Addr>(i) * 1024;
        if (h.l3().probe(a)) {
            victim = a;
            break;
        }
    }
    ASSERT_NE(victim, invalidAddr);
    const auto out = h.accessT<SmallOutcome>(0, victim, false, false);
    EXPECT_EQ(out.level, HitLevel::L3);
    EXPECT_FALSE(h.l3().probe(victim)); // removed from L3
    EXPECT_TRUE(h.l2(0).probe(victim)); // now in L2
}

TEST(Hierarchy, DirtyDataReachesMemoryEventually)
{
    Hierarchy h(smallConfig(), 1);
    // Write a line, then stream enough conflicting lines through the
    // same sets to push it out of L2 and then out of L3.
    h.accessT<SmallOutcome>(0, 0x0, true, false);
    h.fillT<SmallOutcome>(0, 0x0, true, false, false);

    std::vector<CacheLine> writebacks;
    for (int i = 1; i < 40; ++i) {
        const Addr a = static_cast<Addr>(i) * 1024;
        h.accessT<SmallOutcome>(0, a, false, false);
        auto out = h.fillT<SmallOutcome>(0, a, false, false, false);
        for (const auto &wb : out.memWritebacks)
            writebacks.push_back(wb);
    }
    bool found = false;
    for (const auto &wb : writebacks)
        found |= wb.addr == 0x0 && wb.dirty;
    EXPECT_TRUE(found);
}

TEST(Hierarchy, WalkerAccessSkipsL1)
{
    Hierarchy h(smallConfig(), 1);
    h.accessT<SmallOutcome>(0, 0x2000, false, /*from_walker=*/true);
    h.fillT<SmallOutcome>(0, 0x2000, false, false, /*from_walker=*/true);
    EXPECT_FALSE(h.l1(0).probe(0x2000));
    EXPECT_TRUE(h.l2(0).probe(0x2000));
    const auto out = h.accessT<SmallOutcome>(0, 0x2000, false, true);
    EXPECT_EQ(out.level, HitLevel::L2);
}

TEST(Hierarchy, WalkerFillKeepsCompressedBit)
{
    Hierarchy h(smallConfig(), 1);
    h.accessT<SmallOutcome>(0, 0x2000, false, true);
    h.fillT<SmallOutcome>(0, 0x2000, false, /*compressed=*/true, true);
    EXPECT_TRUE(h.l2(0).isCompressed(0x2000));
}

TEST(Hierarchy, L1FillIsAlwaysDecompressed)
{
    // §V-A4: software-visible L1 copies are decompressed.
    Hierarchy h(smallConfig(), 1);
    h.accessT<SmallOutcome>(0, 0x3000, false, false);
    h.fillT<SmallOutcome>(0, 0x3000, false, /*compressed=*/true, false);
    EXPECT_FALSE(h.l1(0).isCompressed(0x3000));
    EXPECT_TRUE(h.l2(0).isCompressed(0x3000));
}

TEST(Hierarchy, PerCoreL1L2SharedL3)
{
    Hierarchy h(smallConfig(), 2);
    h.accessT<SmallOutcome>(0, 0x4000, false, false);
    h.fillT<SmallOutcome>(0, 0x4000, false, false, false);
    // Core 1 misses its own L1/L2.
    const auto out = h.accessT<SmallOutcome>(1, 0x4000, false, false);
    EXPECT_EQ(out.level, HitLevel::Memory);
}

TEST(Hierarchy, PrefetchLookupFiltersResident)
{
    HierarchyConfig cfg = smallConfig();
    Hierarchy h(cfg, 1);
    SmallVec<CacheLine, 4> wbs;
    EXPECT_TRUE(h.prefetchLookupT(0, 0x5000, wbs));
    h.fillT<SmallOutcome>(0, 0x5000, false, false, false);
    EXPECT_FALSE(h.prefetchLookupT(0, 0x5000, wbs));
}

TEST(Hierarchy, TouchL2DirtyForLazyPtbUpdate)
{
    Hierarchy h(smallConfig(), 1);
    h.accessT<SmallOutcome>(0, 0x6000, false, true);
    h.fillT<SmallOutcome>(0, 0x6000, false, true, true);
    h.touchL2Dirty(0, 0x6000);
    const auto line = h.l2(0).extract(0x6000);
    ASSERT_TRUE(line.has_value());
    EXPECT_TRUE(line->dirty);
}

TEST(HierarchyDeathTest, RejectsPrefetchFanOutBeyondSinkCapacity)
{
    // A config can arrive deserialized from a sweep spec; one whose
    // per-access proposals (next-line + stride at L1 and L2) cannot fit
    // the fixed-capacity sink must fail at construction, not with a
    // SmallVec overflow mid-run.
    HierarchyConfig cfg = smallConfig();
    cfg.prefetchers = true;
    cfg.strideDegreeL1 = 2;
    cfg.strideDegreeL2 = 5;
    EXPECT_EXIT({ Hierarchy h(cfg, 1); }, ::testing::ExitedWithCode(1),
                "fan-out .* = 9 exceeds the per-access proposal "
                "capacity 8");
    // The same degrees are harmless with the prefetchers off, and the
    // Table III degrees (2 + 2 + 4) fill the sink exactly.
    cfg.prefetchers = false;
    Hierarchy off(cfg, 1);
    Hierarchy table3(HierarchyConfig{}, 1);
}

} // namespace
} // namespace tmcc
