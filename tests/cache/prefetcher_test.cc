/** Tests for the next-line and stride prefetchers. */

#include <gtest/gtest.h>

#include "cache/prefetcher.hh"

namespace tmcc
{
namespace
{

TEST(NextLine, IssuesOnMiss)
{
    NextLinePrefetcher pf;
    std::vector<Addr> out;
    pf.observeT(0x1000, true, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x1040u);
}

TEST(NextLine, SilentOnHit)
{
    NextLinePrefetcher pf;
    std::vector<Addr> out;
    pf.observeT(0x1000, false, out);
    EXPECT_TRUE(out.empty());
}

TEST(NextLine, AutoTurnOffOnUselessness)
{
    NextLinePrefetcher pf(/*check_window=*/64, /*min_accuracy=*/0.2);
    std::vector<Addr> out;
    // Many misses, never mark useful: accuracy 0 -> turn off.
    for (int i = 0; i < 100; ++i)
        pf.observeT(static_cast<Addr>(i) * 0x10000, true, out);
    EXPECT_FALSE(pf.enabled());
    const std::size_t issued_when_off = out.size();
    for (int i = 0; i < 10; ++i)
        pf.observeT(static_cast<Addr>(i) * 0x20000 + 7, true, out);
    EXPECT_EQ(out.size(), issued_when_off); // no issues while off
}

TEST(NextLine, ReenablesAfterCooldown)
{
    NextLinePrefetcher pf(32, 0.2);
    std::vector<Addr> out;
    for (int i = 0; i < 40; ++i)
        pf.observeT(static_cast<Addr>(i) * 0x10000, true, out);
    EXPECT_FALSE(pf.enabled());
    // Cool-down: 4 windows of observations.
    for (int i = 0; i < 4 * 32 + 1; ++i)
        pf.observeT(static_cast<Addr>(i) * 0x10000, true, out);
    EXPECT_TRUE(pf.enabled());
}

TEST(NextLine, StaysOnWhenUseful)
{
    NextLinePrefetcher pf(64, 0.2);
    std::vector<Addr> out;
    for (int i = 0; i < 200; ++i) {
        pf.observeT(static_cast<Addr>(i) * blockSize, true, out);
        pf.markUseful(); // sequential stream: everything useful
    }
    EXPECT_TRUE(pf.enabled());
}

TEST(Stride, DetectsConstantStride)
{
    StridePrefetcher pf(/*degree=*/2);
    std::vector<Addr> out;
    const Addr page = 0x100000;
    // Two accesses establish the stride; the third (a miss) issues.
    pf.observeT(page + 0 * 128, true, out);
    pf.observeT(page + 1 * 128, true, out);
    out.clear();
    pf.observeT(page + 2 * 128, true, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], page + 3 * 128);
    EXPECT_EQ(out[1], page + 4 * 128);
}

TEST(Stride, NoIssueWithoutConfidence)
{
    StridePrefetcher pf(2);
    std::vector<Addr> out;
    pf.observeT(0x100000, true, out);
    pf.observeT(0x100400, true, out); // stride 0x400 (first sighting)
    EXPECT_TRUE(out.empty());
}

TEST(Stride, NoIssueOnHits)
{
    StridePrefetcher pf(2);
    std::vector<Addr> out;
    const Addr page = 0x200000;
    pf.observeT(page + 0 * 64, true, out);
    pf.observeT(page + 1 * 64, true, out);
    out.clear();
    pf.observeT(page + 2 * 64, false, out); // hit: already covered
    EXPECT_TRUE(out.empty());
}

TEST(Stride, TracksMultipleStreams)
{
    StridePrefetcher pf(1);
    std::vector<Addr> out;
    const Addr p1 = 0x100000, p2 = 0x900000;
    pf.observeT(p1, true, out);
    pf.observeT(p2, true, out);
    pf.observeT(p1 + 64, true, out);
    pf.observeT(p2 + 128, true, out);
    out.clear();
    pf.observeT(p1 + 128, true, out);
    pf.observeT(p2 + 256, true, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], p1 + 192);
    EXPECT_EQ(out[1], p2 + 384);
}

TEST(Stride, NegativeStride)
{
    StridePrefetcher pf(1);
    std::vector<Addr> out;
    const Addr page = 0x500000;
    pf.observeT(page + 512, true, out);
    pf.observeT(page + 448, true, out);
    out.clear();
    pf.observeT(page + 384, true, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], page + 320);
}

} // namespace
} // namespace tmcc
