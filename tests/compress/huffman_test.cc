/** Tests for canonical codes, package-merge, and the reduced tree. */

#include <gtest/gtest.h>

#include "compress/huffman.hh"
#include "common/rng.hh"

namespace tmcc
{
namespace
{

TEST(PackageMerge, SingleSymbolGetsLengthOne)
{
    std::vector<std::uint64_t> freqs(10, 0);
    freqs[3] = 100;
    const auto lens = CanonicalCode::limitedLengths(freqs, 15);
    EXPECT_EQ(lens[3], 1u);
    for (unsigned s = 0; s < 10; ++s)
        if (s != 3) {
            EXPECT_EQ(lens[s], 0u);
        }
}

TEST(PackageMerge, UniformFreqsGiveBalancedTree)
{
    std::vector<std::uint64_t> freqs(8, 5);
    const auto lens = CanonicalCode::limitedLengths(freqs, 15);
    for (auto l : lens)
        EXPECT_EQ(l, 3u);
}

TEST(PackageMerge, SkewedFreqsGiveShortHotCodes)
{
    std::vector<std::uint64_t> freqs = {1000, 100, 10, 1};
    const auto lens = CanonicalCode::limitedLengths(freqs, 15);
    EXPECT_LE(lens[0], lens[1]);
    EXPECT_LE(lens[1], lens[2]);
    EXPECT_LE(lens[2], lens[3]);
    EXPECT_EQ(lens[0], 1u);
}

TEST(PackageMerge, DepthLimitHolds)
{
    // Fibonacci-like frequencies force maximal unconstrained depth.
    std::vector<std::uint64_t> freqs = {1, 1, 2, 3, 5, 8, 13, 21, 34,
                                        55, 89, 144, 233, 377, 610, 987};
    for (unsigned limit : {4u, 5u, 8u, 15u}) {
        const auto lens = CanonicalCode::limitedLengths(freqs, limit);
        for (auto l : lens) {
            EXPECT_GT(l, 0u);
            EXPECT_LE(l, limit);
        }
        // Kraft sum must not exceed 1.
        double kraft = 0;
        for (auto l : lens)
            kraft += 1.0 / static_cast<double>(1ULL << l);
        EXPECT_LE(kraft, 1.0 + 1e-12);
    }
}

TEST(PackageMerge, KraftCompleteness)
{
    Rng rng(40);
    for (int iter = 0; iter < 30; ++iter) {
        const unsigned n = 2 + static_cast<unsigned>(rng.below(30));
        std::vector<std::uint64_t> freqs(n);
        for (auto &f : freqs)
            f = 1 + rng.below(10000);
        const auto lens = CanonicalCode::limitedLengths(freqs, 15);
        double kraft = 0;
        for (auto l : lens)
            kraft += 1.0 / static_cast<double>(1ULL << l);
        // Optimal prefix codes over all-used symbols are complete.
        EXPECT_NEAR(kraft, 1.0, 1e-12);
    }
}

TEST(CanonicalCode, EncodeDecodeAllSymbols)
{
    std::vector<std::uint64_t> freqs = {50, 30, 10, 5, 3, 2};
    const auto lens = CanonicalCode::limitedLengths(freqs, 15);
    CanonicalCode code(lens);

    BitWriter bw;
    for (unsigned s = 0; s < freqs.size(); ++s)
        code.encode(bw, s);
    auto bytes = bw.finish();
    BitReader br(bytes);
    for (unsigned s = 0; s < freqs.size(); ++s)
        ASSERT_EQ(code.decode(br).value(), s);
}

TEST(CanonicalCode, RandomStreamsRoundTrip)
{
    Rng rng(41);
    for (int iter = 0; iter < 20; ++iter) {
        const unsigned n = 2 + static_cast<unsigned>(rng.below(60));
        std::vector<std::uint64_t> freqs(n);
        for (auto &f : freqs)
            f = 1 + rng.below(1000);
        CanonicalCode code(CanonicalCode::limitedLengths(freqs, 15));

        std::vector<unsigned> syms;
        BitWriter bw;
        for (int i = 0; i < 500; ++i) {
            const auto s = static_cast<unsigned>(rng.below(n));
            syms.push_back(s);
            code.encode(bw, s);
        }
        auto bytes = bw.finish();
        BitReader br(bytes);
        for (unsigned s : syms)
            ASSERT_EQ(code.decode(br).value(), s);
    }
}

TEST(ReducedTree, SelectsHottestChars)
{
    std::uint64_t freqs[256] = {};
    // 20 distinct chars; the 15 hottest should be in the tree.
    for (int c = 0; c < 20; ++c)
        freqs[c] = static_cast<std::uint64_t>(1000 - c * 40);
    ReducedTree tree(freqs, ReducedTreeConfig{});
    EXPECT_EQ(tree.hotCount(), 15u);
    // Hot chars get codes at most as long as escape+8.
    for (int c = 0; c < 15; ++c)
        EXPECT_LT(tree.costBits(static_cast<std::uint8_t>(c)), 8u + 1u);
    // Cold chars pay the escape.
    EXPECT_GE(tree.costBits(19), 9u);
}

TEST(ReducedTree, FewDistinctCharsShrinkTree)
{
    std::uint64_t freqs[256] = {};
    freqs['a'] = 100;
    freqs['b'] = 50;
    ReducedTree tree(freqs, ReducedTreeConfig{});
    EXPECT_EQ(tree.hotCount(), 2u);
}

TEST(ReducedTree, HeaderRoundTrip)
{
    Rng rng(42);
    std::uint64_t freqs[256] = {};
    for (int i = 0; i < 64; ++i)
        freqs[rng.below(256)] += 1 + rng.below(500);

    ReducedTree tree(freqs, ReducedTreeConfig{});
    BitWriter bw;
    tree.write(bw);
    // Encode a byte sequence after the header.
    std::vector<std::uint8_t> data;
    for (int i = 0; i < 300; ++i)
        data.push_back(static_cast<std::uint8_t>(rng.below(256)));
    for (auto b : data)
        tree.encodeByte(bw, b);

    auto bytes = bw.finish();
    BitReader br(bytes);
    ReducedTree read_back = ReducedTree::read(br).value();
    EXPECT_EQ(read_back.hotCount(), tree.hotCount());
    for (auto b : data)
        ASSERT_EQ(read_back.decodeByte(br).value(), b);
}

TEST(ReducedTree, HeaderBitsMatchesSerializedSize)
{
    std::uint64_t freqs[256] = {};
    for (int c = 0; c < 30; ++c)
        freqs[c * 7] = 100 + c;
    ReducedTree tree(freqs, ReducedTreeConfig{});
    BitWriter bw;
    tree.write(bw);
    EXPECT_EQ(bw.sizeBits(), tree.headerBits());
}

TEST(ReducedTree, DepthLimitEnforced)
{
    // Extremely skewed frequencies with a tight depth budget.
    std::uint64_t freqs[256] = {};
    std::uint64_t f = 1;
    for (int c = 0; c < 15; ++c) {
        freqs[c] = f;
        f *= 3;
    }
    ReducedTreeConfig cfg;
    cfg.maxDepth = 5;
    ReducedTree tree(freqs, cfg);
    for (int c = 0; c < 15; ++c)
        EXPECT_LE(tree.costBits(static_cast<std::uint8_t>(c)), 5u);
}

TEST(ReducedTree, SixteenLeavesVsFullTreeCostGap)
{
    // On a page with few distinct hot bytes the reduced tree is nearly
    // as good as entropy; with many uniform bytes the escape hurts --
    // exactly the trade-off §V-B1 quantifies at ~1%.
    Rng rng(43);
    std::uint64_t freqs[256] = {};
    for (int i = 0; i < 4096; ++i)
        ++freqs[rng.zipf(256, 1.3)];
    ReducedTree tree(freqs, ReducedTreeConfig{});
    std::uint64_t total = 0, bits = 0;
    for (int c = 0; c < 256; ++c) {
        total += freqs[c];
        bits += freqs[c] * tree.costBits(static_cast<std::uint8_t>(c));
    }
    const double bits_per_byte =
        static_cast<double>(bits) / static_cast<double>(total);
    EXPECT_LT(bits_per_byte, 8.0); // beats raw storage on skewed bytes
}

} // namespace
} // namespace tmcc
