/**
 * @file
 * The measured loop's contract: TMCC on an irregular workload is
 * repeatable and unperturbed by tracing, a sampled run reports its CI
 * summary, an exact run reports none, and the strict validation of
 * the --sample / --stats-interval knobs (death tests).
 * Bit-identity of the runs themselves is pinned against history by
 * tests/sim/golden_fingerprint_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/trace.hh"
#include "sim/sim_result.hh"
#include "sim/system.hh"

namespace tmcc
{
namespace
{

SimConfig
tinyConfig(Arch arch, const std::string &workload = "pageRank")
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

SimConfig
sampledConfig(Arch arch)
{
    SimConfig cfg = tinyConfig(arch);
    cfg.sampleWindows = 4;
    cfg.sampleWindowAccesses = 2'000;
    cfg.sampleWarmAccesses = 500;
    return cfg;
}

/** Serialized result with the wall-clock-only fields zeroed. */
std::vector<std::uint8_t>
fingerprint(SimResult res)
{
    res.setupSeconds = 0.0;
    res.measureSeconds = 0.0;
    ByteWriter w;
    serializeSimResult(w, res);
    return w.buffer();
}

TEST(KernelIdentity, TmccOnIrregularWorkload)
{
    // mcf exercises the embedded-CTE parallel path harder than the
    // graph workload.  Two fresh Systems and the kernel's Tracing=true
    // instantiation must all produce the same bytes.
    const SimConfig cfg = tinyConfig(Arch::Tmcc, "mcf");
    const SimResult first = System(cfg).measure();
    ASSERT_GT(first.accesses, 0u);
    EXPECT_GT(first.ml1Parallel, 0u);
    EXPECT_EQ(fingerprint(first), fingerprint(System(cfg).measure()));

    const std::string path =
        ::testing::TempDir() + "/kernel_identity_mcf.json";
    SimResult traced;
    {
        Tracer tr(path);
        Tracer::setActive(&tr);
        traced = System(cfg).measure();
        Tracer::setActive(nullptr);
    }
    std::remove(path.c_str());
    EXPECT_EQ(fingerprint(first), fingerprint(traced));
}

TEST(KernelIdentity, SampledRunProducesCiSummary)
{
    const SimResult r = System(sampledConfig(Arch::Tmcc)).measure();
    EXPECT_EQ(r.sample.windows, 4u);
    EXPECT_EQ(r.sample.windowAccesses, 2'000u);
    EXPECT_EQ(r.sample.warmupAccesses, 500u);
    EXPECT_GT(r.sample.ffAccesses, 0u);
    ASSERT_EQ(r.sample.metrics.size(), 10u);
    EXPECT_EQ(r.sample.metrics[0].name, "accesses_per_ns");
    for (const SampleMetric &m : r.sample.metrics) {
        SCOPED_TRACE(m.name);
        EXPECT_GE(m.ci95, 0.0);
        EXPECT_TRUE(r.stats.has("sys.sample." + m.name + ".mean"));
        EXPECT_TRUE(r.stats.has("sys.sample." + m.name + ".ci95"));
    }
    EXPECT_EQ(r.stats.get("sys.sample.windows"), 4.0);
    EXPECT_GT(r.sample.metrics[0].mean, 0.0);
    // Every window measured at least w accesses per core.
    EXPECT_GE(r.accesses, 4u * 2'000u);
    EXPECT_GT(r.elapsed, 0u);
    // Totals accumulate only inside windows, so a sampled run counts
    // fewer measured accesses than the exact run it approximates.
    const SimResult exact = System(tinyConfig(Arch::Tmcc)).measure();
    EXPECT_LT(r.accesses, exact.accesses);
}

TEST(KernelIdentity, ExactRunHasEmptySampleSummary)
{
    const SimResult r = System(tinyConfig(Arch::NoCompression)).measure();
    EXPECT_EQ(r.sample.windows, 0u);
    EXPECT_TRUE(r.sample.metrics.empty());
    EXPECT_FALSE(r.stats.has("sys.sample.windows"));
}

// ---- strict validation (death tests) ------------------------------

using KernelValidationDeath = ::testing::Test;

TEST(KernelValidationDeath, RejectsOversubscribedSampling)
{
    SimConfig cfg = tinyConfig(Arch::NoCompression);
    cfg.sampleWindows = 100;
    cfg.sampleWindowAccesses = 1'000; // 100 x 1000 > 20k measured
    EXPECT_EXIT({ System(cfg).measure(); },
                ::testing::ExitedWithCode(1),
                "windows x \\(window \\+ warm-up\\)");
}

TEST(KernelValidationDeath, RejectsEpochsFinerThanWindows)
{
    SimConfig cfg = sampledConfig(Arch::NoCompression);
    cfg.statsInterval = 100; // < window size 2000
    EXPECT_EXIT({ System(cfg).measure(); },
                ::testing::ExitedWithCode(1),
                "--stats-interval must be at least the sample window");
}

TEST(KernelValidationDeath, RejectsSampleSizesWithoutWindowCount)
{
    SimConfig cfg = tinyConfig(Arch::NoCompression);
    cfg.sampleWindowAccesses = 10;
    EXPECT_EXIT({ System(cfg).measure(); },
                ::testing::ExitedWithCode(1),
                "window count is zero");
}

TEST(KernelValidationDeath, ParseSampleSpecRejectsGarbage)
{
    SimConfig cfg;
    const char *bad[] = {
        "",  "5",      "0:100", "5:0",   "5:100:0",
        "x", "5:x",    "5:100:100:9",    "5:-3",
        ":", "5:", ":5", "99999999999999999999:5",
    };
    for (const char *s : bad) {
        SCOPED_TRACE(s);
        EXPECT_EXIT(parseSampleSpec("--sample", s, cfg),
                    ::testing::ExitedWithCode(1),
                    "--sample must be k:w\\[:warm\\]");
    }
}

TEST(KernelValidation, ParseAcceptsGoodSpecs)
{
    SimConfig cfg;
    parseSampleSpec("--sample", "30:10000", cfg);
    EXPECT_EQ(cfg.sampleWindows, 30u);
    EXPECT_EQ(cfg.sampleWindowAccesses, 10'000u);
    EXPECT_EQ(cfg.sampleWarmAccesses, 10'000u); // defaults to w
    parseSampleSpec("--sample", "8:500:125", cfg);
    EXPECT_EQ(cfg.sampleWindows, 8u);
    EXPECT_EQ(cfg.sampleWindowAccesses, 500u);
    EXPECT_EQ(cfg.sampleWarmAccesses, 125u);
}

} // namespace
} // namespace tmcc
