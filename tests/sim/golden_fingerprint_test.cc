/**
 * @file
 * Identity against history: checked-in digests of the full stat dump
 * for a small fixed configuration of three architectures on two
 * workloads.
 *
 * KernelIdentity compares the scalar and batch kernels against each
 * other; both share the structures under them (TLB, walker, caches,
 * CTE buffer, MC), so a behaviour change in shared code moves both
 * sides and passes unnoticed.  These digests were recorded from an
 * earlier build and pin the simulated behaviour itself: a host-side
 * optimisation must leave every one of them unchanged.  A change that
 * is meant to alter simulated behaviour updates the digests below with
 * the digests this test prints, and says why in its description.
 *
 * The digest is CRC-32 over StatDump::print()'s text (every counter,
 * sorted by name, 9 significant digits), so it is independent of the
 * SIMD probe engine and the kernel mode.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "common/crc32.hh"
#include "sim/system.hh"

namespace tmcc
{
namespace
{

SimConfig
goldenConfig(Arch arch, const std::string &workload)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = workload;
    cfg.scale = 0.02;
    cfg.arch = arch;
    cfg.placementAccesses = 20'000;
    cfg.warmAccesses = 10'000;
    cfg.measureAccesses = 20'000;
    return cfg;
}

std::uint32_t
statDigest(const SimResult &res)
{
    std::ostringstream os;
    res.stats.print(os);
    const std::string text = os.str();
    return crc32(reinterpret_cast<const std::uint8_t *>(text.data()),
                 text.size());
}

std::string
hex(std::uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08xu", v);
    return buf;
}

void
expectHistory(Arch arch, const std::string &workload,
              std::uint32_t digest)
{
    System sys(goldenConfig(arch, workload));
    const SimResult res = sys.measure();
    ASSERT_GT(res.accesses, 0u);
    EXPECT_EQ(hex(statDigest(res)), hex(digest))
        << "simulated behaviour of " << archName(arch) << " x "
        << workload << " differs from the recorded history";
}

TEST(GoldenFingerprint, TmccPageRank)
{
    expectHistory(Arch::Tmcc, "pageRank", 0x3fc84247u);
}

// mcf's footprint at this scale never reaches ML2, where TMCC and
// barebone+ml1opt differ, so their dumps (and digests) coincide.
TEST(GoldenFingerprint, TmccMcf)
{
    expectHistory(Arch::Tmcc, "mcf", 0xa9def231u);
}

TEST(GoldenFingerprint, BarebonePlusMl1PageRank)
{
    expectHistory(Arch::BarebonePlusMl1, "pageRank", 0x81a1ac82u);
}

TEST(GoldenFingerprint, BarebonePlusMl1Mcf)
{
    expectHistory(Arch::BarebonePlusMl1, "mcf", 0xa9def231u);
}

TEST(GoldenFingerprint, CompressoPageRank)
{
    expectHistory(Arch::Compresso, "pageRank", 0x9c81e677u);
}

TEST(GoldenFingerprint, CompressoMcf)
{
    expectHistory(Arch::Compresso, "mcf", 0xd76e44ccu);
}

} // namespace
} // namespace tmcc
