#include "cache/prefetch_bitmap.hh"

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/rng.hh"

namespace tmcc
{
namespace
{

/** Randomized differential test against std::unordered_set, with the
 * hierarchy's wholesale clear past 64K live blocks: the same
 * note/consume stream must agree operation by operation. */
TEST(PrefetchBitmap, MatchesUnorderedSetUnderChurn)
{
    PrefetchBitmap bits;
    std::unordered_set<std::uint64_t> ref;
    Rng rng(12345);
    bool cleared = false;
    for (int op = 0; op < 400'000; ++op) {
        // Half the stream revisits a few hot frames, so consumes hit;
        // the rest spreads over 64 leaves and drives the live count
        // past the clear threshold.
        const std::uint64_t blk = rng.chance(0.5)
                                      ? rng.below(4096)
                                      : rng.below(std::uint64_t{1} << 24);
        if (rng.below(3) != 0) {
            if (bits.size() > 64 * 1024) {
                bits.clear();
                ref.clear();
                cleared = true;
            }
            bits.note(blk);
            ref.insert(blk);
        } else {
            ASSERT_EQ(bits.consume(blk), ref.erase(blk) != 0);
        }
        ASSERT_EQ(bits.size(), ref.size());
    }
    EXPECT_TRUE(cleared);
    for (std::uint64_t blk : ref)
        ASSERT_TRUE(bits.consume(blk));
    EXPECT_EQ(bits.size(), 0u);
}

TEST(PrefetchBitmap, ConsumeNeverAllocates)
{
    PrefetchBitmap bits;
    EXPECT_FALSE(bits.consume(12345));
    EXPECT_FALSE(bits.consume(std::uint64_t{1} << 40));
    EXPECT_EQ(bits.leaves(), 0u);
    bits.note(64);
    EXPECT_FALSE(bits.consume(65)); // same frame, other block
    EXPECT_FALSE(bits.consume(std::uint64_t{64} << PrefetchBitmap::leafShift));
    EXPECT_EQ(bits.leaves(), 1u);
    EXPECT_TRUE(bits.consume(64));
    EXPECT_FALSE(bits.consume(64));
}

TEST(PrefetchBitmap, TopOfKeyRangeTakesOneLeaf)
{
    PrefetchBitmap bits;
    bits.note(simd::maxKey);
    EXPECT_EQ(bits.leaves(), 1u);
    EXPECT_EQ(bits.size(), 1u);
    bits.note(simd::maxKey + 1); // past the tag range: not recorded
    EXPECT_EQ(bits.size(), 1u);
    EXPECT_FALSE(bits.consume(simd::maxKey + 1));
    EXPECT_TRUE(bits.consume(simd::maxKey));
    EXPECT_EQ(bits.leaves(), 1u);
}

} // namespace
} // namespace tmcc
