/**
 * @file
 * ProfileLibrary's process-wide measurement cache: identical (spec,
 * samples, seed) keys must be measured exactly once, the cached result
 * must be independent of registration order, and distinct keys must not
 * alias.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "compress/block_compressor.hh"
#include "compress/mem_deflate.hh"
#include "compress/rfc_deflate.hh"
#include "workloads/profile_library.hh"

namespace tmcc
{
namespace
{

ContentMix
mixA()
{
    ContentMix mix;
    mix.parts.push_back({{ContentFamily::Text, 0.5, 1.0}, 2.0});
    mix.parts.push_back({{ContentFamily::IntArray, 0.5, 3.0}, 1.0});
    return mix;
}

ContentMix
mixB()
{
    ContentMix mix;
    mix.parts.push_back({{ContentFamily::PointerHeap, 0.5, 3.0}, 1.0});
    mix.parts.push_back({{ContentFamily::FloatArray, 0.5, 3.0}, 1.0});
    return mix;
}

void
expectSameProfile(const PageProfile &a, const PageProfile &b)
{
    EXPECT_EQ(a.blockBytes, b.blockBytes);
    EXPECT_EQ(a.deflateBytes, b.deflateBytes);
    EXPECT_EQ(a.rfcBytes, b.rfcBytes);
    EXPECT_EQ(a.lzTokens, b.lzTokens);
    EXPECT_EQ(a.huffmanUsed, b.huffmanUsed);
    EXPECT_EQ(a.overflowP, b.overflowP);
}

TEST(ProfileCache, SecondRegistrationCompressesNothing)
{
    ProfileLibrary::clearCache();

    ProfileLibrary first(6);
    first.registerMix(mixA());
    const auto cold = ProfileLibrary::cacheStats();
    EXPECT_EQ(cold.hits, 0u);
    EXPECT_EQ(cold.misses, 2u); // one per part
    EXPECT_EQ(cold.pagesCompressed, 2u * 6u);

    // A fresh library with the same samples/seed re-registers the same
    // mix: every part must come from the cache, zero codec work.
    ProfileLibrary second(6);
    second.registerMix(mixA());
    const auto warm = ProfileLibrary::cacheStats();
    EXPECT_EQ(warm.hits, 2u);
    EXPECT_EQ(warm.misses, cold.misses);
    EXPECT_EQ(warm.pagesCompressed, cold.pagesCompressed);
}

TEST(ProfileCache, CachedProfilesMatchColdMeasurement)
{
    ProfileLibrary::clearCache();

    ProfileLibrary cold(6);
    const unsigned idc = cold.registerMix(mixA());

    ProfileLibrary warm(6);
    const unsigned idw = warm.registerMix(mixA());

    const auto &pc = cold.partProfiles(idc);
    const auto &pw = warm.partProfiles(idw);
    ASSERT_EQ(pc.size(), pw.size());
    for (std::size_t i = 0; i < pc.size(); ++i) {
        SCOPED_TRACE("part " + std::to_string(i));
        expectSameProfile(pc[i], pw[i]);
    }
}

TEST(ProfileCache, ProfilesIndependentOfRegistrationOrder)
{
    // Each part's RNG stream derives from its own key, so measuring
    // mixA before mixB must give the same numbers as B before A.
    ProfileLibrary::clearCache();
    ProfileLibrary ab(6);
    const unsigned a1 = ab.registerMix(mixA());
    const unsigned b1 = ab.registerMix(mixB());
    const std::vector<PageProfile> profA = ab.partProfiles(a1);
    const std::vector<PageProfile> profB = ab.partProfiles(b1);

    ProfileLibrary::clearCache();
    ProfileLibrary ba(6);
    const unsigned b2 = ba.registerMix(mixB());
    const unsigned a2 = ba.registerMix(mixA());

    ASSERT_EQ(profA.size(), ba.partProfiles(a2).size());
    for (std::size_t i = 0; i < profA.size(); ++i)
        expectSameProfile(profA[i], ba.partProfiles(a2)[i]);
    for (std::size_t i = 0; i < profB.size(); ++i)
        expectSameProfile(profB[i], ba.partProfiles(b2)[i]);
}

TEST(ProfileCache, DistinctKeysDoNotAlias)
{
    ProfileLibrary::clearCache();

    ProfileLibrary lib(6);
    lib.registerMix(mixA());
    const auto base = ProfileLibrary::cacheStats();

    // Same specs, different sample count -> new cache entries.
    ProfileLibrary more(8);
    more.registerMix(mixA());
    const auto after_samples = ProfileLibrary::cacheStats();
    EXPECT_EQ(after_samples.hits, base.hits);
    EXPECT_EQ(after_samples.misses, base.misses + 2);

    // Same specs and samples, different seed -> new cache entries.
    ProfileLibrary reseeded(6, 0xbeef);
    reseeded.registerMix(mixA());
    const auto after_seed = ProfileLibrary::cacheStats();
    EXPECT_EQ(after_seed.hits, after_samples.hits);
    EXPECT_EQ(after_seed.misses, after_samples.misses + 2);
}

TEST(ProfileCache, DuplicatePartsWithinOneMixMeasuredOnce)
{
    ProfileLibrary::clearCache();

    // The same (spec) twice in one mix at different weights: one
    // measurement, one miss, one hit.
    ContentMix mix;
    mix.parts.push_back({{ContentFamily::Text, 0.5, 1.0}, 3.0});
    mix.parts.push_back({{ContentFamily::Text, 0.5, 1.0}, 1.0});

    ProfileLibrary lib(6);
    const unsigned id = lib.registerMix(mix);
    const auto s = ProfileLibrary::cacheStats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.pagesCompressed, 6u);
    expectSameProfile(lib.partProfiles(id)[0], lib.partProfiles(id)[1]);
}

/** The profile of one part, measured serially in the test. */
struct Reference
{
    PageProfile profile;
    std::uint32_t noSkipBytes = 0;
};

Reference
serialReference(const ContentSpec &spec, unsigned samples,
                std::uint64_t seed)
{
    BlockCompressor block;
    MemDeflate deflate;
    MemDeflateConfig no_skip_cfg;
    no_skip_cfg.dynamicHuffmanSkip = false;
    MemDeflate no_skip(no_skip_cfg);
    RfcDeflate rfc;
    Rng rng(ProfileLibrary::partSeed(spec, seed));
    std::uint64_t b = 0, d = 0, n = 0, r = 0, tokens = 0;
    unsigned huff = 0;
    for (unsigned s = 0; s < samples; ++s) {
        const auto page = generateContent(spec, rng);
        b += block.compressPage(page.data());
        const CompressedPage dp = deflate.compress(page.data(), page.size());
        d += dp.sizeBytes();
        tokens += dp.lzTokens;
        huff += dp.huffmanUsed;
        n += no_skip.compress(page.data(), page.size()).sizeBytes();
        r += rfc.compress(page.data(), page.size()).sizeBytes();
    }
    const auto mean = [&](std::uint64_t total) {
        return static_cast<std::uint32_t>(
            std::min<std::uint64_t>(pageSize, total / samples));
    };
    Reference ref;
    ref.profile.blockBytes = mean(b);
    ref.profile.deflateBytes = mean(d);
    ref.profile.rfcBytes = mean(r);
    ref.profile.lzTokens = static_cast<std::uint32_t>(tokens / samples);
    ref.profile.huffmanUsed = huff * 2 >= samples;
    ref.noSkipBytes = mean(n);
    return ref;
}

TEST(ProfileCache, BatchMatchesSerialMeasurement)
{
    // Four distinct specs over three mixes, one of them repeated: one
    // page-parallel pass must measure each spec once and match the
    // serial reference field by field.
    ProfileLibrary::clearCache();
    constexpr unsigned samples = 6;
    const std::vector<ContentMix> mixes = {mixA(), mixB(), mixA()};
    ProfileLibrary lib(samples);
    const std::vector<unsigned> ids = lib.registerMixes(mixes);
    ASSERT_EQ(ids.size(), mixes.size());

    const auto s = ProfileLibrary::cacheStats();
    EXPECT_EQ(s.misses, 4u); // the distinct specs
    EXPECT_EQ(s.hits, 2u);   // the repeated mixA's two parts
    EXPECT_EQ(s.pagesCompressed, 4u * samples);

    for (std::size_t m = 0; m < mixes.size(); ++m) {
        const auto &profiles = lib.partProfiles(ids[m]);
        ASSERT_EQ(profiles.size(), mixes[m].parts.size());
        for (std::size_t p = 0; p < profiles.size(); ++p) {
            SCOPED_TRACE("mix " + std::to_string(m) + " part " +
                         std::to_string(p));
            const Reference ref =
                serialReference(mixes[m].parts[p].spec, samples, 0xfeed);
            expectSameProfile(profiles[p], ref.profile);
        }
    }
    // The no-skip sizes surface through the Fig. 15 summary.
    const auto sum = lib.summarize(ids[1]);
    const Reference r0 =
        serialReference(mixB().parts[0].spec, samples, 0xfeed);
    const Reference r1 =
        serialReference(mixB().parts[1].spec, samples, 0xfeed);
    EXPECT_DOUBLE_EQ(sum.deflateNoSkipRatio,
                     pageSize * 2.0 / (r0.noSkipBytes + r1.noSkipBytes));
}

TEST(ProfileCache, ClearCacheResetsStats)
{
    ProfileLibrary lib(6);
    lib.registerMix(mixA());
    ProfileLibrary::clearCache();
    const auto s = ProfileLibrary::cacheStats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.pagesCompressed, 0u);
}

} // namespace
} // namespace tmcc
