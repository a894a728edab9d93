/**
 * @file
 * Shared helpers for the experiment harnesses: one binary regenerates
 * each table/figure of the paper.  Environment knobs:
 *
 *   TMCC_QUICK=1       shrink phase lengths ~4x (smoke-test the benches)
 *   TMCC_SCALE=<f>     override the workload footprint scale (> 0)
 *   TMCC_KERNEL=<m>    measured-loop implementation: scalar|batch
 *                      (default: batch — bit-identical to scalar)
 *   TMCC_SAMPLE=k:w[:warm]  interval sampling for every harness run:
 *                      k detailed windows of w accesses/core
 *   TMCC_JOBS=<n>      simulation worker threads (default: all cores)
 *   TMCC_BENCH_DIR=<d> directory for BENCH_<name>.json reports (default .)
 *   TMCC_CKPT=0|1      disable/enable setup-phase checkpointing
 *                      (default: 1; anything else is fatal)
 *   TMCC_CKPT_DIR=<d>  persist setup checkpoints to <d> and reuse them
 *                      across processes (must be a non-empty path)
 *
 * Every harness submits its simulation grid through runAll(), which
 * dispatches over a SimRunner thread pool, and records wall clock plus
 * headline numbers in a BENCH_<name>.json report for CI to archive.
 */

#ifndef TMCC_BENCH_BENCH_UTIL_HH
#define TMCC_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "sim/checkpoint.hh"
#include "sim/runner.hh"
#include "sim/sweep_queue.hh"
#include "sim/system.hh"

namespace tmcc::bench
{

/** Strictly parse env var `name` (value `s`) as a positive double. */
inline double
parsePositiveDouble(const char *name, const char *s)
{
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    fatalIf(end == s || *end != '\0' || !std::isfinite(v) || v <= 0.0,
            std::string(name) + " must be a positive number, got \"" + s +
                "\"");
    return v;
}

/** TMCC_QUICK: unset/empty or 0 = off, 1 = on; anything else is fatal. */
inline bool
quickEnabled()
{
    const char *s = std::getenv("TMCC_QUICK");
    if (!s || !*s)
        return false;
    char *end = nullptr;
    const long v = std::strtol(s, &end, 10);
    fatalIf(end == s || *end != '\0' || (v != 0 && v != 1),
            std::string("TMCC_QUICK must be 0 or 1, got \"") + s + "\"");
    return v == 1;
}

/** The standard reach-scaled configuration used by every harness. */
inline SimConfig
baseConfig(const std::string &workload, Arch arch)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = workload;
    cfg.arch = arch;

    // Non-graph analogues use larger per-region scales (their paper
    // footprints are smaller but must stay >> the scaled TLB reach).
    if (workload == "mcf" || workload == "omnetpp" ||
        workload == "canneal")
        cfg.scale = 0.8;

    if (const char *s = std::getenv("TMCC_SCALE"))
        cfg.scale = parsePositiveDouble("TMCC_SCALE", s);
    if (quickEnabled()) {
        cfg.placementAccesses /= 4;
        cfg.warmAccesses /= 4;
        cfg.measureAccesses /= 4;
    }

    // Harnesses run the batched kernel by default (bit-identical to
    // the scalar oracle, see tests/sim/kernel_identity_test.cc);
    // TMCC_KERNEL=scalar reverts, TMCC_SAMPLE opts into interval
    // sampling.
    cfg.kernel = KernelMode::Batch;
    if (const char *s = std::getenv("TMCC_KERNEL"); s && *s)
        cfg.kernel = parseKernelMode("TMCC_KERNEL", s);
    if (const char *s = std::getenv("TMCC_SAMPLE"); s && *s)
        parseSampleSpec("TMCC_SAMPLE", s, cfg);
    return cfg;
}

/** Run one configuration (through the runner, so it shares the
 * checkpoint store and phase-split accounting with batch runs). */
inline SimResult
run(const SimConfig &cfg)
{
    return SimRunner(1).run({cfg}).front();
}

/**
 * Run a batch of configurations through the shared thread pool
 * (TMCC_JOBS workers); results come back in submission order and are
 * bit-identical to running the batch serially.
 */
inline std::vector<SimResult>
runAll(const std::vector<SimConfig> &configs)
{
    return SimRunner().run(configs);
}

/**
 * Wall-clock + headline-metric report, written as BENCH_<name>.json
 * into TMCC_BENCH_DIR (default: current directory) when the report is
 * destroyed.  Construct it first thing in main() so the wall clock
 * covers the whole harness.
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string name)
        : name_(std::move(name)),
          start_(std::chrono::steady_clock::now())
    {}

    BenchReport(const BenchReport &) = delete;
    BenchReport &operator=(const BenchReport &) = delete;

    /** Record one headline number (insertion order is preserved). */
    void
    metric(const std::string &key, double value)
    {
        metrics_.emplace_back(key, value);
    }

    ~BenchReport()
    {
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        const char *dir = std::getenv("TMCC_BENCH_DIR");
        const std::string path = std::string(dir && *dir ? dir : ".") +
                                 "/BENCH_" + name_ + ".json";
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            warn("cannot write bench report " + path);
            return;
        }
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"bench\": \"%s\",\n",
                     jsonEscape(name_).c_str());
        std::fprintf(f, "  \"wall_seconds\": %.3f,\n", wall);
        std::fprintf(f, "  \"jobs\": %u,\n", SimRunner::defaultJobs());
        std::fprintf(f, "  \"quick\": %s,\n",
                     quickEnabled() ? "true" : "false");
        // Setup/measured wall-clock split and checkpoint traffic
        // across every run this process dispatched.
        const SimRunner::PhaseTotals phases = SimRunner::phaseTotals();
        const CheckpointStore::Stats ckpt =
            CheckpointStore::global().stats();
        std::fprintf(f, "  \"setup_seconds\": %.3f,\n",
                     phases.setupSeconds);
        std::fprintf(f, "  \"measure_seconds\": %.3f,\n",
                     phases.measureSeconds);
        std::fprintf(f, "  \"runs\": %llu,\n",
                     static_cast<unsigned long long>(phases.runs));
        std::fprintf(f, "  \"restored_runs\": %llu,\n",
                     static_cast<unsigned long long>(
                         phases.restoredRuns));
        std::fprintf(f, "  \"ckpt_memory_hits\": %llu,\n",
                     static_cast<unsigned long long>(ckpt.memoryHits));
        std::fprintf(f, "  \"ckpt_disk_hits\": %llu,\n",
                     static_cast<unsigned long long>(ckpt.diskHits));
        std::fprintf(f, "  \"ckpt_misses\": %llu,\n",
                     static_cast<unsigned long long>(ckpt.misses));
        std::fprintf(f, "  \"ckpt_rejected\": %llu,\n",
                     static_cast<unsigned long long>(
                         ckpt.rejectedFiles));
        // Sweep dispatch counters (all zero unless this process ran
        // a --dispatch=fork|queue sweep through QueueClient).
        const QueueClient::Totals queueTotals = QueueClient::totals();
        std::fprintf(f, "  \"queue_sweeps\": %llu,\n",
                     static_cast<unsigned long long>(
                         queueTotals.sweeps));
        std::fprintf(f, "  \"queue_merged_shards\": %llu,\n",
                     static_cast<unsigned long long>(
                         queueTotals.mergedShards));
        std::fprintf(f, "  \"queue_reclaimed_shards\": %llu,\n",
                     static_cast<unsigned long long>(
                         queueTotals.reclaimedShards));
        std::fprintf(f, "  \"queue_resumed_shards\": %llu,\n",
                     static_cast<unsigned long long>(
                         queueTotals.resumedShards));
        std::fprintf(f, "  \"queue_failed_shards\": %llu,\n",
                     static_cast<unsigned long long>(
                         queueTotals.failedShards));
        std::fprintf(f, "  \"metrics\": {");
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            // Keys pass through jsonEscape (workload names can carry
            // arbitrary characters, e.g. trace:FILE paths); non-finite
            // values have no JSON spelling and become null.
            std::fprintf(f, "%s\n    \"%s\": ", i ? "," : "",
                         jsonEscape(metrics_[i].first).c_str());
            if (std::isfinite(metrics_[i].second))
                std::fprintf(f, "%.17g", metrics_[i].second);
            else
                std::fprintf(f, "null");
        }
        std::fprintf(f, "%s  }\n}\n", metrics_.empty() ? "" : "\n");
        std::fclose(f);
        std::printf("[bench report: %s, %.1fs]\n", path.c_str(), wall);
    }

  private:
    std::string name_;
    std::chrono::steady_clock::time_point start_;
    std::vector<std::pair<std::string, double>> metrics_;
};

/** Simple aligned table printing. */
inline void
header(const std::string &title, const std::string &paper_ref)
{
    std::printf("=====================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("paper reference: %s\n", paper_ref.c_str());
    std::printf("=====================================================\n");
}

inline void
row(const std::string &name, const std::vector<double> &values,
    int precision = 3)
{
    std::printf("%-14s", name.c_str());
    for (double v : values)
        std::printf(" %10.*f", precision, v);
    std::printf("\n");
}

inline void
cols(const std::vector<std::string> &names)
{
    std::printf("%-14s", "workload");
    for (const auto &n : names)
        std::printf(" %10s", n.c_str());
    std::printf("\n");
}

/** Arithmetic mean. */
inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double sum = 0;
    for (double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

} // namespace tmcc::bench

#endif // TMCC_BENCH_BENCH_UTIL_HH
