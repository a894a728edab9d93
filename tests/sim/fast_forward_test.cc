/**
 * @file
 * Fast-forward warms like the detailed path.  From the same setup(),
 * functionally fast-forwarding N accesses per core must leave every
 * cache hierarchy (`hier.*`) and TLB (`core<c>.tlb.*`) counter where N
 * detailed warm-up accesses leave it: both run the one access engine
 * (sim/access_path.hh), whose functional instantiation only swaps the
 * MC read for functionalTouch and drops timing, writebacks to the MC
 * and the walker's PTB harvest.
 *
 * TMCC is left out on purpose: its MC lazily patches a stale PTB's
 * embedded CTE and marks the PTB's L2 line dirty from the read
 * response (§V-A3), which fast-forward has no response for, so its
 * `dirty_evictions` counters differ (the four L2 ones on pageRank).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "tests/sim/system_test_peer.hh"

namespace tmcc
{

namespace
{

struct FfCase
{
    const char *name;
    Arch arch;
    const char *workload;
};

void
PrintTo(const FfCase &c, std::ostream *os)
{
    *os << c.name;
}

class FastForward : public testing::TestWithParam<FfCase>
{};

bool
isWarmedCounter(const std::string &key)
{
    return key.rfind("hier.", 0) == 0 ||
           (key.rfind("core", 0) == 0 &&
            key.find(".tlb.") != std::string::npos);
}

TEST_P(FastForward, WarmsLikeTheDetailedPath)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = GetParam().workload;
    cfg.arch = GetParam().arch;
    cfg.scale = 0.02;
    cfg.placementAccesses = 20'000;
    constexpr std::uint64_t perCore = 20'000;

    System functional(cfg);
    functional.setup();
    SystemTestPeer::fastForward(functional, perCore);

    System detailed(cfg);
    detailed.setup();
    SystemTestPeer::runWarm(detailed, perCore);

    const StatDump ff = SystemTestPeer::stats(functional);
    const StatDump warm = SystemTestPeer::stats(detailed);
    unsigned compared = 0;
    std::string differ;
    for (const auto &[key, value] : warm.all()) {
        if (!isWarmedCounter(key))
            continue;
        ++compared;
        if (ff.get(key) != value)
            differ += "\n  " + key + ": fast-forward " +
                      std::to_string(ff.get(key)) + ", detailed " +
                      std::to_string(value);
    }
    EXPECT_GT(compared, 0u);
    EXPECT_TRUE(differ.empty()) << "counters that differ:" << differ;
    // The warm-up did run: every core looked up its TLB per access.
    EXPECT_GE(warm.get("core0.tlb.hits") + warm.get("core0.tlb.misses"),
              static_cast<double>(perCore));
}

INSTANTIATE_TEST_SUITE_P(
    Archs, FastForward,
    testing::Values(
        FfCase{"NoCompressionPageRank", Arch::NoCompression, "pageRank"},
        FfCase{"NoCompressionMcf", Arch::NoCompression, "mcf"},
        FfCase{"CompressoPageRank", Arch::Compresso, "pageRank"},
        FfCase{"CompressoMcf", Arch::Compresso, "mcf"}),
    [](const testing::TestParamInfo<FfCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace tmcc
