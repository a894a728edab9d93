/**
 * @file
 * SimRunner: the parallel batch runner must be bit-identical to running
 * each System serially, return results in submission order, and handle
 * degenerate batches.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/system.hh"

namespace tmcc
{
namespace
{

SimConfig
tinyConfig(Arch arch, const std::string &workload, double scale = 0.02)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = workload;
    cfg.scale = scale;
    cfg.arch = arch;
    cfg.placementAccesses = 10'000;
    cfg.warmAccesses = 5'000;
    cfg.measureAccesses = 10'000;
    return cfg;
}

/** A small grid mixing workloads and architectures. */
std::vector<SimConfig>
grid()
{
    return {
        tinyConfig(Arch::NoCompression, "pageRank"),
        tinyConfig(Arch::Compresso, "pageRank"),
        tinyConfig(Arch::Tmcc, "pageRank"),
        tinyConfig(Arch::Tmcc, "mcf"),
        tinyConfig(Arch::Barebone, "stream"),
        tinyConfig(Arch::Tmcc, "blackscholes", 0.1),
    };
}

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.storeAccesses, b.storeAccesses);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.tlbMisses, b.tlbMisses);
    EXPECT_EQ(a.tlbHits, b.tlbHits);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.llcWritebacks, b.llcWritebacks);
    EXPECT_EQ(a.cteHits, b.cteHits);
    EXPECT_EQ(a.cteMisses, b.cteMisses);
    EXPECT_EQ(a.cteMissesAfterTlbMiss, b.cteMissesAfterTlbMiss);
    EXPECT_EQ(a.ml1CteHit, b.ml1CteHit);
    EXPECT_EQ(a.ml1Parallel, b.ml1Parallel);
    EXPECT_EQ(a.ml1Mismatch, b.ml1Mismatch);
    EXPECT_EQ(a.ml1Serial, b.ml1Serial);
    EXPECT_EQ(a.ml2Accesses, b.ml2Accesses);
    EXPECT_EQ(a.footprintBytes, b.footprintBytes);
    EXPECT_EQ(a.dramUsedBytes, b.dramUsedBytes);
    // Bit-identical, not approximately equal: the parallel run must not
    // perturb any arithmetic.
    EXPECT_EQ(a.avgL3MissLatencyNs, b.avgL3MissLatencyNs);
    EXPECT_EQ(a.readBusUtil, b.readBusUtil);
    EXPECT_EQ(a.writeBusUtil, b.writeBusUtil);
    EXPECT_EQ(a.stats.all(), b.stats.all());
}

TEST(SimRunner, ParallelMatchesSerialBitIdentically)
{
    const std::vector<SimConfig> configs = grid();

    std::vector<SimResult> serial;
    for (const auto &cfg : configs) {
        System sys(cfg);
        serial.push_back(sys.measure());
    }

    const std::vector<SimResult> par = SimRunner(4).run(configs);

    ASSERT_EQ(par.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i) + " (" +
                     configs[i].workload + ")");
        expectIdentical(serial[i], par[i]);
    }
}

TEST(SimRunner, ResultsInSubmissionOrder)
{
    // Distinguishable configs: different workloads leave different
    // footprints, so a reordering would be visible.
    std::vector<SimConfig> configs = {
        tinyConfig(Arch::NoCompression, "pageRank"),
        tinyConfig(Arch::NoCompression, "mcf"),
        tinyConfig(Arch::NoCompression, "stream"),
    };
    const auto results = SimRunner(3).run(configs);
    ASSERT_EQ(results.size(), 3u);

    for (std::size_t i = 0; i < configs.size(); ++i) {
        System sys(configs[i]);
        const SimResult want = sys.measure();
        EXPECT_EQ(results[i].footprintBytes, want.footprintBytes)
            << "result " << i << " out of submission order";
        EXPECT_EQ(results[i].accesses, want.accesses);
    }
}

TEST(SimRunner, EmptyBatch)
{
    EXPECT_TRUE(SimRunner(4).run({}).empty());
}

TEST(SimRunner, SingleConfigRunsInline)
{
    const std::vector<SimConfig> one = {
        tinyConfig(Arch::Tmcc, "pageRank")};
    const auto results = SimRunner(8).run(one);
    ASSERT_EQ(results.size(), 1u);

    System sys(one[0]);
    expectIdentical(sys.measure(), results[0]);
}

TEST(SimRunner, MoreJobsThanConfigs)
{
    const std::vector<SimConfig> two = {
        tinyConfig(Arch::NoCompression, "pageRank"),
        tinyConfig(Arch::Compresso, "pageRank"),
    };
    const auto results = SimRunner(16).run(two);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_GT(results[0].accesses, 0u);
    EXPECT_GT(results[1].accesses, 0u);
}

TEST(SimRunner, RunConfigsConvenience)
{
    const std::vector<SimConfig> one = {
        tinyConfig(Arch::NoCompression, "pageRank")};
    const auto results = runConfigs(one, 2);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].accesses, 0u);
}

TEST(SimRunner, JobsAccessor)
{
    EXPECT_EQ(SimRunner(3).jobs(), 3u);
    // jobs = 0 resolves to the environment/hardware default.
    EXPECT_GE(SimRunner(0).jobs(), 1u);
    EXPECT_GE(SimRunner::defaultJobs(), 1u);
}

// phaseTotals() is process-wide, so the check runs in a fresh process.
TEST(SimRunnerDeathTest, PhaseTotalsReportTheWorkersUsed)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const std::vector<SimConfig> two = {
        tinyConfig(Arch::NoCompression, "pageRank"),
        tinyConfig(Arch::Compresso, "pageRank"),
    };
    EXPECT_EXIT(
        {
            SimRunner(1).run(two);
            std::exit(SimRunner::phaseTotals().jobs == 1 ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(SimRunnerDeathTest, RejectsMalformedTmccJobs)
{
    EXPECT_DEATH(
        {
            setenv("TMCC_JOBS", "banana", 1);
            SimRunner::defaultJobs();
        },
        "TMCC_JOBS");
    EXPECT_DEATH(
        {
            setenv("TMCC_JOBS", "0", 1);
            SimRunner::defaultJobs();
        },
        "TMCC_JOBS");
    EXPECT_DEATH(
        {
            setenv("TMCC_JOBS", "-3", 1);
            SimRunner::defaultJobs();
        },
        "TMCC_JOBS");
    // Too wide for the unsigned job count: rejected, not truncated to 1.
    EXPECT_DEATH(
        {
            setenv("TMCC_JOBS", "4294967297", 1);
            SimRunner::defaultJobs();
        },
        "TMCC_JOBS must be a positive integer");
}

} // namespace
} // namespace tmcc
