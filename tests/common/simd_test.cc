/**
 * @file
 * The probe-engine contract (common/simd.hh): every vector ISA
 * compiled into this build returns bit-identical results to ScalarIsa
 * — the oracle — for every primitive, every set width in [1, maxWays]
 * with its padding lanes, and adversarial value distributions (heavy
 * ties, reserved keys, keys present / absent / duplicated, rank rows
 * touched at the MRU, the LRU and random ways).  This is what lets the
 * structures built on the engine claim SIMD builds are metric-identical
 * to the scalar fallback.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "common/simd.hh"

namespace tmcc
{
namespace
{

/** 64-bit value pools of increasing nastiness (the TLB's key rows). */
std::uint64_t
drawValue(std::mt19937_64 &rng, int regime)
{
    switch (regime) {
    case 0: // wide: ties unlikely
        return rng();
    case 1: // narrow: constant ties everywhere
        return rng() % 4;
    case 2: // sentinel-heavy: ~0, ~0^1, 0 and small values
        switch (rng() % 4) {
        case 0: return ~std::uint64_t{0};
        case 1: return ~std::uint64_t{0} ^ 1;
        case 2: return 0;
        default: return rng() % 8;
        }
    default: // sign-bit straddling: halves that match alone
        return (rng() % 2 ? 0x8000000000000000ULL : 0) + rng() % 16;
    }
}

/** 32-bit key pools: wide, narrow, reserved-key-heavy, sign-straddling. */
std::uint32_t
drawKey(std::mt19937_64 &rng, int regime)
{
    switch (regime) {
    case 0:
        return static_cast<std::uint32_t>(rng());
    case 1:
        return static_cast<std::uint32_t>(rng() % 4);
    case 2:
        switch (rng() % 4) {
        case 0: return simd::invalidKey;
        case 1: return simd::padKey;
        case 2: return 0;
        default: return static_cast<std::uint32_t>(rng() % 8);
        }
    default:
        return (rng() % 2 ? 0x80000000u : 0u) +
               static_cast<std::uint32_t>(rng() % 16);
    }
}

/** The 64-bit probes over rows of every width the ISA can take. */
template <class Isa>
void
compare64AgainstOracle()
{
    std::mt19937_64 rng(20260808);
    for (unsigned n = Isa::lanes64; n <= simd::maxWays;
         n += Isa::lanes64) {
        for (int regime = 0; regime < 4; ++regime) {
            for (int iter = 0; iter < 200; ++iter) {
                std::vector<std::uint64_t> vals(n);
                for (auto &v : vals)
                    v = drawValue(rng, regime);
                // Probe for a value that is often present.
                const std::uint64_t key =
                    iter % 2 ? vals[rng() % n] : drawValue(rng, regime);
                const std::uint64_t mask = drawValue(rng, regime);

                SCOPED_TRACE(std::string(Isa::name) + " u64 n=" +
                             std::to_string(n) + " regime=" +
                             std::to_string(regime));
                EXPECT_EQ(
                    simd::ScalarIsa::eqMask(vals.data(), n, key),
                    Isa::eqMask(vals.data(), n, key));
                EXPECT_EQ(simd::ScalarIsa::eqMaskAnd(vals.data(), n,
                                                     mask, key & mask),
                          Isa::eqMaskAnd(vals.data(), n, mask,
                                         key & mask));
            }
        }
    }
}

/**
 * The 32-bit probes at every set width in [1, maxWays]: the row is
 * padded to the ISA's u32 lane count with padKey, as the structures
 * pad theirs, and no probe for a storable or invalid key may report a
 * padding lane.
 */
template <class Isa>
void
compare32AgainstOracle()
{
    std::mt19937_64 rng(20261017);
    for (unsigned ways = 1; ways <= simd::maxWays; ++ways) {
        const unsigned n =
            (ways + Isa::lanes32 - 1) / Isa::lanes32 * Isa::lanes32;
        for (int regime = 0; regime < 4; ++regime) {
            for (int iter = 0; iter < 100; ++iter) {
                std::vector<std::uint32_t> row(n, simd::padKey);
                for (unsigned w = 0; w < ways; ++w) {
                    row[w] = drawKey(rng, regime);
                    if (row[w] == simd::padKey)
                        row[w] = simd::invalidKey;
                }
                const std::uint32_t key =
                    iter % 2 ? row[rng() % ways] : drawKey(rng, regime);
                const std::uint32_t key2 =
                    iter % 3 ? simd::invalidKey : drawKey(rng, regime);

                SCOPED_TRACE(std::string(Isa::name) + " u32 ways=" +
                             std::to_string(ways) + " regime=" +
                             std::to_string(regime));
                const std::uint64_t m =
                    simd::ScalarIsa::eqMask(row.data(), n, key);
                EXPECT_EQ(m, Isa::eqMask(row.data(), n, key));
                std::uint64_t sa, sb, va, vb;
                simd::ScalarIsa::eqMask2(row.data(), n, key, key2, sa,
                                         sb);
                Isa::eqMask2(row.data(), n, key, key2, va, vb);
                EXPECT_EQ(sa, va);
                EXPECT_EQ(sb, vb);
                EXPECT_EQ(sa, m);
                if (key != simd::padKey && ways < 64) {
                    EXPECT_EQ(m >> ways, 0u);
                }
                if (key2 != simd::padKey && ways < 64) {
                    EXPECT_EQ(sb >> ways, 0u);
                }
            }
        }
    }
}

/** A rank row for `ways` ways: a random permutation, then padding. */
std::vector<std::uint8_t>
randomRankRow(std::mt19937_64 &rng, unsigned ways)
{
    std::vector<std::uint8_t> row(simd::padRanks(ways), simd::padRank);
    std::iota(row.begin(), row.begin() + ways, std::uint8_t{0});
    std::shuffle(row.begin(), row.begin() + ways, rng);
    return row;
}

/** Way holding rank `rank` in `row`. */
unsigned
wayRanked(const std::vector<std::uint8_t> &row, unsigned rank)
{
    return static_cast<unsigned>(
        std::find(row.begin(), row.end(), rank) - row.begin());
}

/**
 * rankTouch / rankOldest at every set width in [1, maxWays], padding
 * bytes included: random touch streams mixed with touches of the MRU
 * way (a no-op) and of the LRU way (everyone else ages by one), the
 * scalar and ISA rows compared byte for byte after every op.
 */
template <class Isa>
void
compareRanksAgainstOracle()
{
    std::mt19937_64 rng(20261018);
    for (unsigned ways = 1; ways <= simd::maxWays; ++ways) {
        SCOPED_TRACE(std::string(Isa::name) + " ranks ways=" +
                     std::to_string(ways));
        std::vector<std::uint8_t> ref = randomRankRow(rng, ways);
        std::vector<std::uint8_t> dut = ref;
        for (int op = 0; op < 300; ++op) {
            const unsigned oldest =
                simd::ScalarIsa::rankOldest(ref.data(), ways);
            ASSERT_EQ(oldest, Isa::rankOldest(dut.data(), ways));
            ASSERT_EQ(ref[oldest], ways - 1);

            const std::vector<std::uint8_t> before = ref;
            unsigned way;
            switch (op % 4) {
            case 0: way = wayRanked(ref, 0); break; // MRU
            case 1: way = oldest; break;            // LRU
            default: way = static_cast<unsigned>(rng() % ways); break;
            }
            simd::ScalarIsa::rankTouch(ref.data(), ways, way);
            Isa::rankTouch(dut.data(), ways, way);
            ASSERT_EQ(ref, dut) << "touch way " << way;

            ASSERT_EQ(ref[way], 0u);
            for (unsigned w = 0; w < ways; ++w) {
                if (w == way)
                    continue;
                // Ways ranked below the touched one age by one.
                const bool aged = before[w] < before[way];
                ASSERT_EQ(ref[w], before[w] + (aged ? 1 : 0));
            }
            for (std::size_t b = ways; b < ref.size(); ++b)
                ASSERT_EQ(dut[b], simd::padRank);
        }
    }
}

template <class Isa>
void
compareAgainstOracle()
{
    compare64AgainstOracle<Isa>();
    compare32AgainstOracle<Isa>();
    compareRanksAgainstOracle<Isa>();
}

TEST(SimdProbe, ActiveIsaMatchesScalarOracle)
{
    compareAgainstOracle<simd::Active>();
}

#if defined(TMCC_SIMD_X86)
TEST(SimdProbe, Sse2MatchesScalarOracle)
{
    compareAgainstOracle<simd::Sse2Isa>();
}
#endif

#if defined(TMCC_SIMD_X86) && defined(__AVX2__)
TEST(SimdProbe, Avx2MatchesScalarOracle)
{
    compareAgainstOracle<simd::Avx2Isa>();
}
#endif

#if defined(TMCC_SIMD_NEON)
TEST(SimdProbe, NeonMatchesScalarOracle)
{
    compareAgainstOracle<simd::NeonIsa>();
}
#endif

TEST(SimdProbe, FirstWayAndPadWays)
{
    EXPECT_EQ(simd::firstWay(0b1), 0u);
    EXPECT_EQ(simd::firstWay(0b1010), 1u);
    EXPECT_EQ(simd::firstWay(std::uint64_t{1} << 63), 63u);
    for (unsigned a = 1; a <= simd::maxWays; ++a) {
        const unsigned p64 = simd::padWays<std::uint64_t>(a);
        EXPECT_GE(p64, a);
        EXPECT_EQ(p64 % simd::Active::lanes64, 0u);
        EXPECT_LT(p64 - a, simd::Active::lanes64);
        const unsigned p32 = simd::padWays<std::uint32_t>(a);
        EXPECT_GE(p32, a);
        EXPECT_EQ(p32 % simd::Active::lanes32, 0u);
        EXPECT_LT(p32 - a, simd::Active::lanes32);
        const unsigned pr = simd::padRanks(a);
        EXPECT_GE(pr, a);
        EXPECT_EQ(pr % simd::rankRowBytes, 0u);
        EXPECT_LT(pr - a, simd::rankRowBytes);
    }
    // Reserved keys sit above every storable key, and padding ranks
    // above every real rank under a signed byte compare.
    EXPECT_GT(simd::padKey, simd::maxKey);
    EXPECT_GT(simd::invalidKey, simd::maxKey);
    EXPECT_GT(static_cast<std::int8_t>(simd::padRank),
              static_cast<std::int8_t>(simd::maxWays - 1));
}

/** Directed corner cases the random regimes could in principle miss. */
TEST(SimdProbe, DirectedEdgeCases)
{
    using S = simd::Active;
    // All-equal keys: every way matches.
    std::vector<std::uint32_t> same(simd::maxWays, 7);
    EXPECT_EQ(S::eqMask(same.data(), simd::maxWays, 7u),
              ~std::uint64_t{0});
    std::vector<std::uint64_t> same64(simd::maxWays, 7);
    EXPECT_EQ(S::eqMask(same64.data(), simd::maxWays, std::uint64_t{7}),
              ~std::uint64_t{0});
    // A key in the last lane of the last vector.
    std::vector<std::uint32_t> tail(simd::maxWays, simd::invalidKey);
    tail.back() = 42;
    std::uint64_t m, inv;
    S::eqMask2(tail.data(), simd::maxWays, 42, simd::invalidKey, m, inv);
    EXPECT_EQ(m, std::uint64_t{1} << 63);
    EXPECT_EQ(inv, ~std::uint64_t{0} >> 1);
    // Keys that differ only in the sign bit never alias.
    std::vector<std::uint32_t> sign(8, 0x80000005u);
    EXPECT_EQ(S::eqMask(sign.data(), 8, 5u), 0u);

    // The LRU way in the last byte of a full 64-way rank row.
    std::vector<std::uint8_t> ranks(simd::maxWays);
    std::iota(ranks.begin(), ranks.end(), std::uint8_t{0});
    EXPECT_EQ(S::rankOldest(ranks.data(), simd::maxWays),
              simd::maxWays - 1);
    // Touching the LRU way makes it MRU and ages everyone else.
    S::rankTouch(ranks.data(), simd::maxWays, simd::maxWays - 1);
    EXPECT_EQ(ranks.back(), 0u);
    EXPECT_EQ(ranks[0], 1u);
    EXPECT_EQ(S::rankOldest(ranks.data(), simd::maxWays),
              simd::maxWays - 2);
    // Touching the MRU way changes nothing.
    const std::vector<std::uint8_t> before = ranks;
    S::rankTouch(ranks.data(), simd::maxWays, simd::maxWays - 1);
    EXPECT_EQ(ranks, before);

    // One way: the row is [0, pad...] and stays so.
    std::vector<std::uint8_t> one(simd::rankRowBytes, simd::padRank);
    one[0] = 0;
    EXPECT_EQ(S::rankOldest(one.data(), 1), 0u);
    S::rankTouch(one.data(), 1, 0);
    EXPECT_EQ(one[0], 0u);
    EXPECT_EQ(one[1], simd::padRank);
}

} // namespace
} // namespace tmcc
