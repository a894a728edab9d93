/** Tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include "cache/cache.hh"

namespace tmcc
{
namespace
{

TEST(Cache, MissThenHit)
{
    Cache c("t", 4096, 4);
    EXPECT_FALSE(c.access(0x1000, false));
    c.insert(CacheLine{0x1000, false, false});
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SubBlockAddressesAlias)
{
    Cache c("t", 4096, 4);
    c.insert(CacheLine{0x1000, false, false});
    EXPECT_TRUE(c.access(0x1004, false));
    EXPECT_TRUE(c.access(0x103f, true));
}

TEST(Cache, LruEviction)
{
    // 4 sets x 2 ways of 64B = 512B cache.
    Cache c("t", 512, 2);
    // Fill one set (set stride = 4 * 64 = 256B).
    c.insert(CacheLine{0x0, false, false});
    c.insert(CacheLine{0x100, false, false});
    // Touch the first to make the second LRU.
    EXPECT_TRUE(c.access(0x0, false));
    const auto victim = c.insert(CacheLine{0x200, false, false});
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x100u);
    EXPECT_TRUE(c.probe(0x0));
    EXPECT_FALSE(c.probe(0x100));
}

TEST(Cache, DirtyBitTracksWrites)
{
    Cache c("t", 512, 2);
    c.insert(CacheLine{0x0, false, false});
    c.access(0x0, true); // write marks dirty
    const auto line = c.extract(0x0);
    ASSERT_TRUE(line.has_value());
    EXPECT_TRUE(line->dirty);
}

TEST(Cache, EvictionReportsDirtiness)
{
    Cache c("t", 512, 2);
    c.insert(CacheLine{0x0, true, false}); // dirty on insert
    c.insert(CacheLine{0x100, false, false});
    const auto victim = c.insert(CacheLine{0x200, false, false});
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x0u);
    EXPECT_TRUE(victim->dirty);
}

TEST(Cache, CompressedBitRoundTrips)
{
    Cache c("t", 4096, 4);
    c.insert(CacheLine{0x40, false, true});
    EXPECT_TRUE(c.isCompressed(0x40));
    c.setCompressed(0x40, false);
    EXPECT_FALSE(c.isCompressed(0x40));
    // Absent lines report uncompressed.
    EXPECT_FALSE(c.isCompressed(0x9000));
}

TEST(Cache, ExtractRemovesLine)
{
    Cache c("t", 4096, 4);
    c.insert(CacheLine{0x80, true, true});
    const auto line = c.extract(0x80);
    ASSERT_TRUE(line.has_value());
    EXPECT_TRUE(line->dirty);
    EXPECT_TRUE(line->compressed);
    EXPECT_FALSE(c.probe(0x80));
    EXPECT_FALSE(c.extract(0x80).has_value());
}

TEST(Cache, InsertExistingRefreshes)
{
    Cache c("t", 512, 2);
    c.insert(CacheLine{0x0, false, false});
    c.insert(CacheLine{0x100, false, false});
    // Re-insert 0x0 (refresh); inserting a third line now evicts 0x100.
    EXPECT_FALSE(c.insert(CacheLine{0x0, true, false}).has_value());
    const auto victim = c.insert(CacheLine{0x200, false, false});
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x100u);
    // The refresh merged the dirty bit.
    const auto line = c.extract(0x0);
    ASSERT_TRUE(line.has_value());
    EXPECT_TRUE(line->dirty);
}

TEST(Cache, MarkDirtyOnResident)
{
    Cache c("t", 4096, 4);
    c.insert(CacheLine{0xc0, false, false});
    c.markDirty(0xc0);
    const auto line = c.extract(0xc0);
    ASSERT_TRUE(line.has_value());
    EXPECT_TRUE(line->dirty);
}

TEST(Cache, StatsDump)
{
    Cache c("t", 4096, 4);
    c.access(0, false);
    c.insert(CacheLine{0, false, false});
    c.access(0, false);
    StatDump d;
    c.dumpStats(d, "c");
    EXPECT_EQ(d.get("c.hits"), 1.0);
    EXPECT_EQ(d.get("c.misses"), 1.0);
    EXPECT_DOUBLE_EQ(d.get("c.miss_rate"), 0.5);
}

TEST(CacheDeathTest, RejectsZeroSizeNamingTheCache)
{
    // Size 0 passes the multiple-of-a-set check; it must fail at
    // construction, not as a divide by zero on the first access.
    EXPECT_EXIT(Cache("l1.0", 0, 8), ::testing::ExitedWithCode(1),
                "fatal: l1.0: size must be nonzero");
}

} // namespace
} // namespace tmcc
