/**
 * @file
 * Portable SIMD set-probe primitives for every set-associative
 * structure in the simulator: Cache, StridePrefetcher, CteCache and
 * Tlb.
 *
 * Each structure keeps its way metadata as structure-of-arrays rows,
 * one row per set, padded so a probe is a few whole-vector operations
 * that never read past the row's end:
 *
 *   - a key row: 32-bit keys (cache block numbers, prefetcher page
 *     numbers, CTE block numbers) or, for the TLB only, 64-bit packed
 *     (vpn << 2 | flags) keys; padded to the vector width;
 *   - a recency-rank row: one byte per way, rank 0 the most recently
 *     used way, assoc-1 the least; padded to 16 bytes with padRank.
 *
 * Exact LRU needs only each way's recency order, so a byte per way
 * replaces a 64-bit timestamp and a global clock, and the victim is a
 * byte compare instead of a 64-bit min scan.  The primitives here are
 * the only code that makes *decisions* over those rows:
 *
 *   - eqMask      which ways match a key (u32 and u64 rows)
 *   - eqMask2     which ways match either of two keys in one load
 *                 pass (u32 rows: resident + free-way probe)
 *   - eqMaskAnd   which u64 ways match a key under a bit mask (the
 *                 TLB's validity bit)
 *   - rankTouch   make one way the most recently used: every way
 *                 ranked below it ages by one
 *   - rankOldest  the least recently used way (ranked n-1)
 *
 * Each primitive is defined once per ISA with *identical* result
 * contracts: callers get the same answer from every instantiation,
 * bit for bit, which is what keeps SIMD builds metric-identical to the
 * scalar fallback (property-tested in tests/common/simd_test.cc and
 * tests/cache/probe_property_test.cc, cross-build-diffed by the
 * simd-identity CI job).  Every compare is native on every ISA: 32-bit
 * and 8-bit lanes for the key and rank rows, 64-bit only for the
 * TLB's keys.
 *
 * ISA selection is compile-time: AVX2 > SSE2 > NEON (aarch64) > scalar,
 * overridden to scalar by defining TMCC_SIMD_FORCE_SCALAR (the
 * -DTMCC_SIMD=OFF CMake option).  There is no runtime dispatch — the
 * probes sit inside the hottest loop of the simulator and a predictable
 * branch per probe is still a branch.
 */

#ifndef TMCC_COMMON_SIMD_HH
#define TMCC_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>

#if !defined(TMCC_SIMD_FORCE_SCALAR)
#if defined(__AVX2__) || defined(__SSE2__) || defined(__x86_64__) || \
    defined(_M_X64)
#include <immintrin.h>
#define TMCC_SIMD_X86 1
#elif defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#define TMCC_SIMD_NEON 1
#endif
#endif

namespace tmcc::simd
{

/**
 * Associativity ceiling of the probe engine: way masks are one u64 (one
 * bit per way), so sets wider than 64 ways are unsupported geometry and
 * rejected at construction by every structure built on these probes.
 */
constexpr unsigned maxWays = 64;

/** 32-bit key of an invalid (free) way. */
constexpr std::uint32_t invalidKey = 0xFFFFFFFF;
/** 32-bit key of a padding way: matches no probe, never looks free. */
constexpr std::uint32_t padKey = 0xFFFFFFFE;
/** Largest storable 32-bit key; the two above it are reserved. */
constexpr std::uint64_t maxKey = padKey - 1;

/**
 * Rank of a padding byte in a rank row.  Real ranks are below maxWays,
 * and 0x7F is above every one of them under both signed (SSE2) and
 * unsigned byte compares, so padding never ages and never reads as the
 * oldest way.
 */
constexpr std::uint8_t padRank = 0x7F;
/** Rank rows are padded to whole 16-byte vectors on every ISA. */
constexpr unsigned rankRowBytes = 16;

/** First set bit of a nonzero way mask = lowest matching way. */
inline unsigned
firstWay(std::uint64_t mask)
{
    return static_cast<unsigned>(__builtin_ctzll(mask));
}

/**
 * The scalar fallback — also the oracle every vector ISA is
 * property-tested against.  For the key probes `n` is the padded way
 * count of the row; for the rank ops it is the real way count and the
 * row holds a permutation of [0, n) followed by padRank bytes up to
 * the next multiple of rankRowBytes.  The contracts hold for any n in
 * [1, maxWays].
 */
struct ScalarIsa
{
    static constexpr unsigned lanes64 = 1;
    static constexpr unsigned lanes32 = 1;
    static constexpr const char *name = "scalar";

    /** Bit i set iff p[i] == key. */
    template <class Key>
    static std::uint64_t
    eqMask(const Key *p, unsigned n, Key key)
    {
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; ++i)
            m |= static_cast<std::uint64_t>(p[i] == key) << i;
        return m;
    }

    /** eqMask for two keys over one pass: ma/mb get the way masks. */
    static void
    eqMask2(const std::uint32_t *p, unsigned n, std::uint32_t key_a,
            std::uint32_t key_b, std::uint64_t &ma, std::uint64_t &mb)
    {
        ma = mb = 0;
        for (unsigned i = 0; i < n; ++i) {
            ma |= static_cast<std::uint64_t>(p[i] == key_a) << i;
            mb |= static_cast<std::uint64_t>(p[i] == key_b) << i;
        }
    }

    /** Bit i set iff (p[i] & mask) == key. */
    static std::uint64_t
    eqMaskAnd(const std::uint64_t *p, unsigned n, std::uint64_t mask,
              std::uint64_t key)
    {
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; ++i)
            m |= static_cast<std::uint64_t>((p[i] & mask) == key) << i;
        return m;
    }

    /** Ways ranked below `way` age by one; `way` becomes rank 0. */
    static void
    rankTouch(std::uint8_t *row, unsigned n, unsigned way)
    {
        const std::uint8_t r = row[way];
        for (unsigned i = 0; i < n; ++i)
            row[i] = static_cast<std::uint8_t>(row[i] + (row[i] < r));
        row[way] = 0;
    }

    /** The way ranked n-1 (the least recently used). */
    static unsigned
    rankOldest(const std::uint8_t *row, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            if (row[i] == n - 1)
                return i;
        return 0; // unreachable while the row is a permutation
    }
};

#if defined(TMCC_SIMD_X86)

/** 128-bit SSE2 path: 4 u32 lanes or 16 rank bytes per compare; the
 * TLB's u64 compares are synthesized from epi32 ops (baseline x86-64
 * has no 64-bit vector compare). */
struct Sse2Isa
{
    static constexpr unsigned lanes64 = 2;
    static constexpr unsigned lanes32 = 4;
    static constexpr const char *name = "sse2";

    static __m128i
    load(const void *p)
    {
        return _mm_loadu_si128(static_cast<const __m128i *>(p));
    }

    static std::uint64_t
    mask32(__m128i eq)
    {
        return static_cast<std::uint64_t>(
            _mm_movemask_ps(_mm_castsi128_ps(eq)));
    }

    static __m128i
    eq64(__m128i a, __m128i b)
    {
        const __m128i e = _mm_cmpeq_epi32(a, b);
        return _mm_and_si128(
            e, _mm_shuffle_epi32(e, _MM_SHUFFLE(2, 3, 0, 1)));
    }

    static std::uint64_t
    eqMask(const std::uint32_t *p, unsigned n, std::uint32_t key)
    {
        const __m128i k = _mm_set1_epi32(static_cast<int>(key));
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; i += 4)
            m |= mask32(_mm_cmpeq_epi32(load(p + i), k)) << i;
        return m;
    }

    static void
    eqMask2(const std::uint32_t *p, unsigned n, std::uint32_t key_a,
            std::uint32_t key_b, std::uint64_t &ma, std::uint64_t &mb)
    {
        const __m128i ka = _mm_set1_epi32(static_cast<int>(key_a));
        const __m128i kb = _mm_set1_epi32(static_cast<int>(key_b));
        ma = mb = 0;
        for (unsigned i = 0; i < n; i += 4) {
            const __m128i v = load(p + i);
            ma |= mask32(_mm_cmpeq_epi32(v, ka)) << i;
            mb |= mask32(_mm_cmpeq_epi32(v, kb)) << i;
        }
    }

    static std::uint64_t
    eqMask(const std::uint64_t *p, unsigned n, std::uint64_t key)
    {
        const __m128i k = _mm_set1_epi64x(static_cast<long long>(key));
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; i += 2)
            m |= static_cast<std::uint64_t>(_mm_movemask_pd(
                     _mm_castsi128_pd(eq64(load(p + i), k))))
                 << i;
        return m;
    }

    static std::uint64_t
    eqMaskAnd(const std::uint64_t *p, unsigned n, std::uint64_t mask,
              std::uint64_t key)
    {
        const __m128i k = _mm_set1_epi64x(static_cast<long long>(key));
        const __m128i am =
            _mm_set1_epi64x(static_cast<long long>(mask));
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; i += 2) {
            const __m128i v = _mm_and_si128(load(p + i), am);
            m |= static_cast<std::uint64_t>(_mm_movemask_pd(
                     _mm_castsi128_pd(eq64(v, k))))
                 << i;
        }
        return m;
    }

    static void
    rankTouch(std::uint8_t *row, unsigned n, unsigned way)
    {
        // Ranks and padRank are all below 0x80, so the signed byte
        // compare orders them like the oracle's unsigned one.  Ranks
        // are unique, so the one lane equal to r is `way`: zeroing it
        // in-register leaves one whole-vector store per 16 ways, which
        // the next touch's load can forward from.
        const __m128i r = _mm_set1_epi8(static_cast<char>(row[way]));
        for (unsigned i = 0; i < n; i += rankRowBytes) {
            const __m128i v = load(row + i);
            // v < r lanes are all-ones (-1): subtracting ages them.
            const __m128i aged = _mm_sub_epi8(v, _mm_cmpgt_epi8(r, v));
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(row + i),
                _mm_andnot_si128(_mm_cmpeq_epi8(v, r), aged));
        }
    }

    static unsigned
    rankOldest(const std::uint8_t *row, unsigned n)
    {
        const __m128i want = _mm_set1_epi8(static_cast<char>(n - 1));
        for (unsigned i = 0; i < n; i += rankRowBytes) {
            const unsigned m = static_cast<unsigned>(
                _mm_movemask_epi8(_mm_cmpeq_epi8(load(row + i), want)));
            if (m)
                return i + static_cast<unsigned>(__builtin_ctz(m));
        }
        return 0; // unreachable while the row is a permutation
    }
};

#endif // TMCC_SIMD_X86

#if defined(TMCC_SIMD_X86) && defined(__AVX2__)

/** 256-bit AVX2 path: 8 u32 or 4 u64 lanes with native compares; rank
 * rows (16 bytes per 16 ways) use the SSE2 ops. */
struct Avx2Isa
{
    static constexpr unsigned lanes64 = 4;
    static constexpr unsigned lanes32 = 8;
    static constexpr const char *name = "avx2";

    static __m256i
    load(const void *p)
    {
        return _mm256_loadu_si256(static_cast<const __m256i *>(p));
    }

    static std::uint64_t
    mask32(__m256i eq)
    {
        return static_cast<std::uint64_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(eq)));
    }

    static std::uint64_t
    mask64(__m256i eq)
    {
        return static_cast<std::uint64_t>(
            _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
    }

    static std::uint64_t
    eqMask(const std::uint32_t *p, unsigned n, std::uint32_t key)
    {
        const __m256i k = _mm256_set1_epi32(static_cast<int>(key));
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; i += 8)
            m |= mask32(_mm256_cmpeq_epi32(load(p + i), k)) << i;
        return m;
    }

    static void
    eqMask2(const std::uint32_t *p, unsigned n, std::uint32_t key_a,
            std::uint32_t key_b, std::uint64_t &ma, std::uint64_t &mb)
    {
        const __m256i ka = _mm256_set1_epi32(static_cast<int>(key_a));
        const __m256i kb = _mm256_set1_epi32(static_cast<int>(key_b));
        ma = mb = 0;
        for (unsigned i = 0; i < n; i += 8) {
            const __m256i v = load(p + i);
            ma |= mask32(_mm256_cmpeq_epi32(v, ka)) << i;
            mb |= mask32(_mm256_cmpeq_epi32(v, kb)) << i;
        }
    }

    static std::uint64_t
    eqMask(const std::uint64_t *p, unsigned n, std::uint64_t key)
    {
        const __m256i k =
            _mm256_set1_epi64x(static_cast<long long>(key));
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; i += 4)
            m |= mask64(_mm256_cmpeq_epi64(load(p + i), k)) << i;
        return m;
    }

    static std::uint64_t
    eqMaskAnd(const std::uint64_t *p, unsigned n, std::uint64_t mask,
              std::uint64_t key)
    {
        const __m256i k =
            _mm256_set1_epi64x(static_cast<long long>(key));
        const __m256i am =
            _mm256_set1_epi64x(static_cast<long long>(mask));
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; i += 4)
            m |= mask64(_mm256_cmpeq_epi64(
                     _mm256_and_si256(load(p + i), am), k))
                 << i;
        return m;
    }

    static void
    rankTouch(std::uint8_t *row, unsigned n, unsigned way)
    {
        Sse2Isa::rankTouch(row, n, way);
    }

    static unsigned
    rankOldest(const std::uint8_t *row, unsigned n)
    {
        return Sse2Isa::rankOldest(row, n);
    }
};

#endif // __AVX2__

#if defined(TMCC_SIMD_NEON)

/** 128-bit NEON path (aarch64): 4 u32, 2 u64 or 16 rank-byte lanes,
 * all with native compares. */
struct NeonIsa
{
    static constexpr unsigned lanes64 = 2;
    static constexpr unsigned lanes32 = 4;
    static constexpr const char *name = "neon";

    static std::uint64_t
    mask32(uint32x4_t eq)
    {
        const std::uint32_t bits[4] = {1, 2, 4, 8};
        return vaddvq_u32(vandq_u32(eq, vld1q_u32(bits)));
    }

    static std::uint64_t
    mask64(uint64x2_t eq)
    {
        return (vgetq_lane_u64(eq, 0) & 1) |
               ((vgetq_lane_u64(eq, 1) & 1) << 1);
    }

    static std::uint64_t
    eqMask(const std::uint32_t *p, unsigned n, std::uint32_t key)
    {
        const uint32x4_t k = vdupq_n_u32(key);
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; i += 4)
            m |= mask32(vceqq_u32(vld1q_u32(p + i), k)) << i;
        return m;
    }

    static void
    eqMask2(const std::uint32_t *p, unsigned n, std::uint32_t key_a,
            std::uint32_t key_b, std::uint64_t &ma, std::uint64_t &mb)
    {
        const uint32x4_t ka = vdupq_n_u32(key_a);
        const uint32x4_t kb = vdupq_n_u32(key_b);
        ma = mb = 0;
        for (unsigned i = 0; i < n; i += 4) {
            const uint32x4_t v = vld1q_u32(p + i);
            ma |= mask32(vceqq_u32(v, ka)) << i;
            mb |= mask32(vceqq_u32(v, kb)) << i;
        }
    }

    static std::uint64_t
    eqMask(const std::uint64_t *p, unsigned n, std::uint64_t key)
    {
        const uint64x2_t k = vdupq_n_u64(key);
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; i += 2)
            m |= mask64(vceqq_u64(vld1q_u64(p + i), k)) << i;
        return m;
    }

    static std::uint64_t
    eqMaskAnd(const std::uint64_t *p, unsigned n, std::uint64_t mask,
              std::uint64_t key)
    {
        const uint64x2_t k = vdupq_n_u64(key);
        const uint64x2_t am = vdupq_n_u64(mask);
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; i += 2)
            m |= mask64(vceqq_u64(vandq_u64(vld1q_u64(p + i), am), k))
                 << i;
        return m;
    }

    static void
    rankTouch(std::uint8_t *row, unsigned n, unsigned way)
    {
        // See Sse2Isa::rankTouch: `way` is the one lane equal to r.
        const uint8x16_t r = vdupq_n_u8(row[way]);
        for (unsigned i = 0; i < n; i += rankRowBytes) {
            const uint8x16_t v = vld1q_u8(row + i);
            // v < r lanes are all-ones (-1): subtracting ages them.
            const uint8x16_t aged = vsubq_u8(v, vcltq_u8(v, r));
            vst1q_u8(row + i, vbicq_u8(aged, vceqq_u8(v, r)));
        }
    }

    static unsigned
    rankOldest(const std::uint8_t *row, unsigned n)
    {
        const uint8x16_t want =
            vdupq_n_u8(static_cast<std::uint8_t>(n - 1));
        for (unsigned i = 0; i < n; i += rankRowBytes) {
            // Narrow the byte mask to one nibble per lane.
            const uint8x16_t eq = vceqq_u8(vld1q_u8(row + i), want);
            const std::uint64_t m = vget_lane_u64(
                vreinterpret_u64_u8(
                    vshrn_n_u16(vreinterpretq_u16_u8(eq), 4)),
                0);
            if (m)
                return i + static_cast<unsigned>(__builtin_ctzll(m)) / 4;
        }
        return 0; // unreachable while the row is a permutation
    }
};

#endif // TMCC_SIMD_NEON

// Compile-time ISA selection (widest available wins; see file header).
#if defined(TMCC_SIMD_X86) && defined(__AVX2__)
using Active = Avx2Isa;
#elif defined(TMCC_SIMD_X86)
using Active = Sse2Isa;
#elif defined(TMCC_SIMD_NEON)
using Active = NeonIsa;
#else
using Active = ScalarIsa;
#endif

/** Ways per set after padding a row of `Key`s to the vector width. */
template <class Key>
constexpr unsigned
padWays(unsigned assoc)
{
    static_assert(sizeof(Key) == 4 || sizeof(Key) == 8,
                  "probe rows hold 32- or 64-bit keys");
    constexpr unsigned lanes =
        sizeof(Key) == 4 ? Active::lanes32 : Active::lanes64;
    return (assoc + lanes - 1) / lanes * lanes;
}

/** Bytes per set of a rank row holding `assoc` ranks. */
constexpr unsigned
padRanks(unsigned assoc)
{
    return (assoc + rankRowBytes - 1) / rankRowBytes * rankRowBytes;
}

/**
 * Build `sets` rank rows of `stride` bytes: each set starts with ranks
 * 0..assoc-1 in way order (any permutation is a valid empty-set
 * order), then padRank up to the stride.
 */
template <class Vec>
void
initRankRows(Vec &ranks, std::size_t sets, unsigned assoc,
             unsigned stride)
{
    ranks.assign(sets * stride, padRank);
    for (std::size_t s = 0; s < sets; ++s)
        for (unsigned w = 0; w < assoc; ++w)
            ranks[s * stride + w] = static_cast<std::uint8_t>(w);
}

/** Hint the prefetcher at the metadata row starting at `p`. */
inline void
prefetchRow(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 0 /* read */, 3 /* high locality */);
#else
    (void)p;
#endif
}

} // namespace tmcc::simd

#endif // TMCC_COMMON_SIMD_HH
