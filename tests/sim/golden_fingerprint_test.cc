/**
 * @file
 * Identity against history: checked-in digests of the full SimResult
 * for a fixed matrix of small runs — every architecture, exact and
 * sampled, plus memcloud, epoch statistics, nested paging, huge pages
 * and a traced run.
 *
 * These digests were recorded from an earlier build and pin the
 * simulated behaviour itself: a host-side optimisation must leave
 * every one of them unchanged, in every build type and SIMD probe
 * configuration.  A change that is meant to alter simulated behaviour
 * updates the digests below with the digests this test prints, and
 * says why in its description.
 *
 * The digest is CRC-32 over serializeSimResult() with the wall-clock
 * fields zeroed: every counter, histogram, epoch, per-tenant stat and
 * the sample summary, bit for bit.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/crc32.hh"
#include "common/serial.hh"
#include "common/trace.hh"
#include "sim/sweep_manifest.hh"
#include "sim/system.hh"

namespace tmcc
{
namespace
{

/** What a case changes relative to the tiny exact run. */
enum class Variant
{
    Exact,
    Memcloud,  //!< 4 tenants
    Epochs,    //!< statsInterval = 5000
    Nested,    //!< nested paging
    Huge,      //!< 2MB pages
    Sampled,   //!< --sample 4:2000:500
    Traced,    //!< under an active Tracer
};

struct GoldenCase
{
    const char *name;
    Arch arch;
    const char *workload;
    Variant variant;
    std::uint32_t digest;
};

// Tracing must not perturb the simulation: the traced case shares the
// untraced digest.
constexpr std::uint32_t tmccPageRank = 0x851314a1u;

// mcf's footprint at this scale never reaches ML2, where TMCC and
// barebone+ml1opt differ, so their digests coincide.
constexpr GoldenCase goldenCases[] = {
    {"NoCompressionPageRank", Arch::NoCompression, "pageRank",
     Variant::Exact, 0x52e368dau},
    {"CompressoPageRank", Arch::Compresso, "pageRank", Variant::Exact,
     0x6ac9b975u},
    {"BarebonePageRank", Arch::Barebone, "pageRank", Variant::Exact,
     0x1078de00u},
    {"BarebonePlusMl1PageRank", Arch::BarebonePlusMl1, "pageRank",
     Variant::Exact, 0xd836047au},
    {"BarebonePlusMl2PageRank", Arch::BarebonePlusMl2, "pageRank",
     Variant::Exact, 0x5db0e5ebu},
    {"TmccPageRank", Arch::Tmcc, "pageRank", Variant::Exact,
     tmccPageRank},
    {"TmccMcf", Arch::Tmcc, "mcf", Variant::Exact, 0xe638f2c7u},
    {"BarebonePlusMl1Mcf", Arch::BarebonePlusMl1, "mcf", Variant::Exact,
     0xe638f2c7u},
    {"CompressoMcf", Arch::Compresso, "mcf", Variant::Exact,
     0x9b01460eu},
    {"TmccMemcloud", Arch::Tmcc, "memcloud", Variant::Memcloud,
     0xe368b1eau},
    {"NoCompressionEpochs", Arch::NoCompression, "pageRank",
     Variant::Epochs, 0xc6198524u},
    {"TmccEpochs", Arch::Tmcc, "pageRank", Variant::Epochs,
     0x1e218c82u},
    {"TmccNestedPaging", Arch::Tmcc, "pageRank", Variant::Nested,
     0x6753b02au},
    {"TmccHugePages", Arch::Tmcc, "pageRank", Variant::Huge,
     0x8caca784u},
    {"SampledNoCompression", Arch::NoCompression, "pageRank",
     Variant::Sampled, 0x5abb2d0au},
    {"SampledCompresso", Arch::Compresso, "pageRank", Variant::Sampled,
     0x434b3b15u},
    {"SampledBarebone", Arch::Barebone, "pageRank", Variant::Sampled,
     0xa87484ecu},
    {"SampledBarebonePlusMl1", Arch::BarebonePlusMl1, "pageRank",
     Variant::Sampled, 0x7e90d094u},
    {"SampledBarebonePlusMl2", Arch::BarebonePlusMl2, "pageRank",
     Variant::Sampled, 0xfdba8e6cu},
    {"SampledTmcc", Arch::Tmcc, "pageRank", Variant::Sampled,
     0x8544095du},
    {"TmccPageRankTraced", Arch::Tmcc, "pageRank", Variant::Traced,
     tmccPageRank},
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
      case Variant::Memcloud:
        cfg.tenants = 4;
        break;
      case Variant::Epochs:
        cfg.statsInterval = 5'000;
        break;
      case Variant::Nested:
        cfg.nestedPaging = true;
        break;
      case Variant::Huge:
        cfg.hugePages = true;
        break;
      case Variant::Sampled:
        cfg.sampleWindows = 4;
        cfg.sampleWindowAccesses = 2'000;
        cfg.sampleWarmAccesses = 500;
        break;
      case Variant::Exact:
      case Variant::Traced:
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
    if (c.variant != Variant::Traced)
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
