/**
 * @file
 * Identity against history: checked-in digests of the full SimResult
 * for a fixed matrix of small runs — every architecture, exact and
 * sampled, plus epoch statistics (exact and sampled), nested paging
 * (TMCC and Compresso), huge pages, nested paging with huge pages, and
 * traced runs: exact with and without epochs and nested paging, and
 * sampled.
 *
 * These digests were recorded from an earlier build and pin the
 * simulated behaviour itself: a host-side optimisation must leave
 * every one of them unchanged, in every build type and SIMD probe
 * configuration.  A change that is meant to alter simulated behaviour
 * updates the digests below with the digests this test prints, and
 * says why in its description.
 *
 * The digest is CRC-32 over serializeSimResult() with the wall-clock
 * fields zeroed: every counter, histogram, epoch and the sample
 * summary, bit for bit.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/crc32.hh"
#include "common/trace.hh"
#include "sim/sim_result.hh"
#include "sim/system.hh"

namespace tmcc
{
namespace
{

/** What a case changes relative to the tiny exact run. */
enum class Variant
{
    Exact,
    Epochs,     //!< statsInterval = 5000
    Nested,     //!< nested paging
    Huge,       //!< 2MB pages
    NestedHuge, //!< nested paging with 2MB pages
    Sampled,    //!< --sample 4:2000:500
    SampledEpochs, //!< --sample 4:2000:500 with statsInterval = 2000
};

struct GoldenCase
{
    const char *name;
    Arch arch;
    const char *workload;
    Variant variant;
    std::uint32_t digest;
    bool traced = false; //!< run under an active Tracer
};

// Tracing must not perturb the simulation: each traced case shares its
// untraced digest.
constexpr std::uint32_t tmccPageRank = 0x80399dc6u;
constexpr std::uint32_t tmccEpochs = 0x657c2624u;
constexpr std::uint32_t tmccNestedPaging = 0x9cc3153bu;
constexpr std::uint32_t sampledTmcc = 0xdac67bfcu;

// mcf's footprint at this scale never reaches ML2, where TMCC and
// barebone+ml1opt differ, so their digests coincide.
constexpr GoldenCase goldenCases[] = {
    {"NoCompressionPageRank", Arch::NoCompression, "pageRank",
     Variant::Exact, 0xe6cbbdbfu},
    {"CompressoPageRank", Arch::Compresso, "pageRank", Variant::Exact,
     0x876df926u},
    {"BarebonePageRank", Arch::Barebone, "pageRank", Variant::Exact,
     0xd4b02470u},
    {"BarebonePlusMl1PageRank", Arch::BarebonePlusMl1, "pageRank",
     Variant::Exact, 0xbcf710e3u},
    {"BarebonePlusMl2PageRank", Arch::BarebonePlusMl2, "pageRank",
     Variant::Exact, 0x74891f2cu},
    {"TmccPageRank", Arch::Tmcc, "pageRank", Variant::Exact,
     tmccPageRank},
    {"TmccMcf", Arch::Tmcc, "mcf", Variant::Exact, 0x8fe28e55u},
    {"BarebonePlusMl1Mcf", Arch::BarebonePlusMl1, "mcf", Variant::Exact,
     0x8fe28e55u},
    {"CompressoMcf", Arch::Compresso, "mcf", Variant::Exact,
     0x0723918bu},
    {"NoCompressionEpochs", Arch::NoCompression, "pageRank",
     Variant::Epochs, 0x6cf9746du},
    {"TmccEpochs", Arch::Tmcc, "pageRank", Variant::Epochs, tmccEpochs},
    {"TmccNestedPaging", Arch::Tmcc, "pageRank", Variant::Nested,
     tmccNestedPaging},
    {"TmccHugePages", Arch::Tmcc, "pageRank", Variant::Huge,
     0x74dfa4e5u},
    {"TmccNestedHugePages", Arch::Tmcc, "pageRank", Variant::NestedHuge,
     0x81d53140u},
    {"CompressoNestedPaging", Arch::Compresso, "pageRank",
     Variant::Nested, 0x9ea3e13fu},
    {"SampledNoCompression", Arch::NoCompression, "pageRank",
     Variant::Sampled, 0xd5e44737u},
    {"SampledCompresso", Arch::Compresso, "pageRank", Variant::Sampled,
     0x0bf825e4u},
    {"SampledBarebone", Arch::Barebone, "pageRank", Variant::Sampled,
     0xa0f8b0c5u},
    {"SampledBarebonePlusMl1", Arch::BarebonePlusMl1, "pageRank",
     Variant::Sampled, 0xbf508c76u},
    {"SampledBarebonePlusMl2", Arch::BarebonePlusMl2, "pageRank",
     Variant::Sampled, 0x30a48047u},
    {"SampledTmcc", Arch::Tmcc, "pageRank", Variant::Sampled,
     sampledTmcc},
    {"SampledTmccEpochs", Arch::Tmcc, "pageRank", Variant::SampledEpochs,
     0x88ab39d6u},
    {"TmccPageRankTraced", Arch::Tmcc, "pageRank", Variant::Exact,
     tmccPageRank, true},
    {"TmccEpochsTraced", Arch::Tmcc, "pageRank", Variant::Epochs,
     tmccEpochs, true},
    {"TmccNestedPagingTraced", Arch::Tmcc, "pageRank", Variant::Nested,
     tmccNestedPaging, true},
    {"SampledTmccTraced", Arch::Tmcc, "pageRank", Variant::Sampled,
     sampledTmcc, true},
};

SimConfig
goldenConfig(const GoldenCase &c)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = c.workload;
    cfg.scale = 0.02;
    cfg.arch = c.arch;
    cfg.placementAccesses = 20'000;
    cfg.warmAccesses = 10'000;
    cfg.measureAccesses = 20'000;
    switch (c.variant) {
      case Variant::Epochs:
        cfg.statsInterval = 5'000;
        break;
      case Variant::Nested:
        cfg.nestedPaging = true;
        break;
      case Variant::Huge:
        cfg.hugePages = true;
        break;
      case Variant::NestedHuge:
        cfg.nestedPaging = true;
        cfg.hugePages = true;
        break;
      case Variant::Sampled:
      case Variant::SampledEpochs:
        cfg.sampleWindows = 4;
        cfg.sampleWindowAccesses = 2'000;
        cfg.sampleWarmAccesses = 500;
        if (c.variant == Variant::SampledEpochs)
            cfg.statsInterval = 2'000;
        break;
      case Variant::Exact:
        break;
    }
    return cfg;
}

/** CRC-32 of the result with the wall-clock-only fields zeroed. */
std::uint32_t
digest(SimResult res)
{
    res.setupSeconds = 0.0;
    res.measureSeconds = 0.0;
    ByteWriter w;
    serializeSimResult(w, res);
    return crc32(w.buffer().data(), w.buffer().size());
}

std::string
hex(std::uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08xu", v);
    return buf;
}

SimResult
runCase(const GoldenCase &c)
{
    const SimConfig cfg = goldenConfig(c);
    if (!c.traced)
        return System(cfg).measure();
    const std::string path =
        ::testing::TempDir() + "/golden_" + c.name + ".json";
    SimResult res;
    {
        Tracer tr(path);
        Tracer::setActive(&tr);
        res = System(cfg).measure();
        Tracer::setActive(nullptr);
    }
    std::remove(path.c_str());
    return res;
}

class GoldenFingerprint : public ::testing::Test
{
  public:
    explicit GoldenFingerprint(const GoldenCase &c) : case_(c) {}

    void
    TestBody() override
    {
        const SimResult res = runCase(case_);
        ASSERT_GT(res.accesses, 0u);
        EXPECT_EQ(hex(digest(res)), hex(case_.digest))
            << "simulated behaviour of " << case_.name
            << " differs from the recorded history";
    }

  private:
    const GoldenCase &case_;
};

const bool registered = [] {
    for (const GoldenCase &c : goldenCases)
        ::testing::RegisterTest(
            "GoldenFingerprint", c.name, nullptr, nullptr, __FILE__,
            __LINE__,
            [&c]() -> ::testing::Test * {
                return new GoldenFingerprint(c);
            });
    return true;
}();

} // namespace
} // namespace tmcc
