/** Unit and property tests for the LZ stage. */

#include <gtest/gtest.h>

#include "compress/lz.hh"
#include "tests/compress/test_patterns.hh"

namespace tmcc
{
namespace
{

void
expectRoundTrip(const Lz &lz, const std::vector<std::uint8_t> &in)
{
    const auto tokens = lz.compress(in.data(), in.size());
    const auto out = lz.decompress(tokens);
    ASSERT_TRUE(out.ok()) << out.status().toString();
    ASSERT_EQ(out.value(), in);
}

TEST(Lz, EmptyInput)
{
    Lz lz;
    const auto tokens = lz.compress(nullptr, 0);
    EXPECT_TRUE(tokens.empty());
    EXPECT_TRUE(lz.decompress(tokens).value().empty());
}

TEST(Lz, AllLiteralsWhenNoRepeats)
{
    Lz lz;
    std::vector<std::uint8_t> in;
    for (int i = 0; i < 200; ++i)
        in.push_back(static_cast<std::uint8_t>(i));
    const auto tokens = lz.compress(in.data(), in.size());
    // A strictly increasing byte ramp has no 3-byte repeats.
    for (const auto &t : tokens)
        EXPECT_FALSE(t.isMatch);
    expectRoundTrip(lz, in);
}

TEST(Lz, RepeatedRunBecomesMatch)
{
    Lz lz;
    std::vector<std::uint8_t> in(256, 0x41);
    const auto tokens = lz.compress(in.data(), in.size());
    // First literal, then overlapping matches.
    ASSERT_GE(tokens.size(), 2u);
    EXPECT_FALSE(tokens[0].isMatch);
    EXPECT_TRUE(tokens[1].isMatch);
    EXPECT_EQ(tokens[1].distance, 1u);
    expectRoundTrip(lz, in);
}

TEST(Lz, MatchRespectsWindow)
{
    LzConfig cfg;
    cfg.windowSize = 64;
    Lz lz(cfg);
    // Pattern, then > window of noise, then the pattern again: the
    // second copy must NOT reference the first.
    std::vector<std::uint8_t> in;
    const std::string pat = "abcdefgh";
    for (char c : pat)
        in.push_back(static_cast<std::uint8_t>(c));
    Rng rng(20);
    for (int i = 0; i < 128; ++i)
        in.push_back(static_cast<std::uint8_t>(rng.below(256)));
    for (char c : pat)
        in.push_back(static_cast<std::uint8_t>(c));

    const auto tokens = lz.compress(in.data(), in.size());
    for (const auto &t : tokens)
        if (t.isMatch) {
            EXPECT_LE(t.distance, cfg.windowSize);
        }
    expectRoundTrip(lz, in);
}

TEST(Lz, MaxMatchLengthRespected)
{
    Lz lz;
    std::vector<std::uint8_t> in(2048, 0x55);
    const auto tokens = lz.compress(in.data(), in.size());
    for (const auto &t : tokens)
        if (t.isMatch) {
            EXPECT_LE(t.length, lz.config().maxMatch);
        }
    expectRoundTrip(lz, in);
}

TEST(Lz, TokenBitsAccounting)
{
    Lz lz; // 1KB window -> 11 distance bits
    EXPECT_EQ(lz.distanceBits(), 11u);
    std::vector<LzToken> tokens;
    tokens.push_back({false, 'x', 0, 0});
    tokens.push_back({true, 0, 10, 5});
    EXPECT_EQ(lz.tokenBits(tokens), (1u + 8u) + (1u + 8u + 11u));
}

TEST(Lz, SmallerWindowNeverBeatsLarger)
{
    Rng rng(21);
    const auto page = test::textPage(rng);

    std::size_t prev_bits = SIZE_MAX;
    for (std::size_t window : {256u, 1024u, 4096u}) {
        LzConfig cfg;
        cfg.windowSize = window;
        Lz lz(cfg);
        const auto tokens = lz.compress(page.data(), page.size());
        // Compare token count as a window-quality proxy; bits would
        // conflate the longer distance fields.
        const std::size_t n = tokens.size();
        EXPECT_LE(n, prev_bits);
        prev_bits = n;
        expectRoundTrip(lz, page);
    }
}

TEST(Lz, LazyMatchingRoundTripsAndHelps)
{
    Rng rng(22);
    LzConfig greedy_cfg;
    LzConfig lazy_cfg;
    lazy_cfg.lazyMatch = true;
    Lz greedy(greedy_cfg);
    Lz lazy(lazy_cfg);

    std::size_t greedy_tokens = 0, lazy_tokens = 0;
    for (int i = 0; i < 10; ++i) {
        const auto page = test::textPage(rng);
        greedy_tokens += greedy.compress(page.data(), page.size()).size();
        lazy_tokens += lazy.compress(page.data(), page.size()).size();
        expectRoundTrip(lazy, page);
    }
    // Lazy matching should be at least competitive on text.
    EXPECT_LE(lazy_tokens, greedy_tokens * 11 / 10);
}

/** Property sweep: random content of varying entropy round-trips. */
class LzPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(LzPropertyTest, RoundTrip)
{
    const auto [seed, alphabet] = GetParam();
    Rng rng(seed);
    Lz lz;
    const auto page =
        test::randomPage(rng, pageSize, static_cast<unsigned>(alphabet));
    expectRoundTrip(lz, page);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LzPropertyTest,
    ::testing::Combine(::testing::Range(0, 10),
                       ::testing::Values(2, 4, 16, 64, 256)));

} // namespace
} // namespace tmcc
