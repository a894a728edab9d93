/**
 * @file
 * Shared helpers for the experiment harnesses: one binary regenerates
 * each table/figure of the paper.  Environment knobs:
 *
 *   TMCC_QUICK=1       shrink phase lengths ~4x (smoke-test the benches)
 *   TMCC_SCALE=<f>     override the workload footprint scale (> 0)
 *   TMCC_SAMPLE=k:w[:warm]  interval sampling for every harness run:
 *                      k detailed windows of w accesses/core
 *   TMCC_JOBS=<n>      simulation worker threads (default: all cores)
 *   TMCC_BENCH_DIR=<d> directory for BENCH_<name>.json reports (default .)
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
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "sim/runner.hh"
#include "sim/system.hh"

namespace tmcc::bench
{

/** TMCC_QUICK: unset/empty or 0 = off, 1 = on; anything else is fatal. */
inline bool
quickEnabled()
{
    return cli::envNumber<unsigned>("TMCC_QUICK", 0, 1).value_or(0) == 1;
}

/** The standard reach-scaled configuration used by every harness. */
inline SimConfig
baseConfig(const std::string &workload, Arch arch)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = workload;
    cfg.arch = arch;
    applyScalePreset(cfg);

    if (const auto scale = cli::envNumber("TMCC_SCALE", cli::kPositive))
        cfg.scale = *scale;
    if (quickEnabled()) {
        cfg.placementAccesses /= 4;
        cfg.warmAccesses /= 4;
        cfg.measureAccesses /= 4;
    }

    // TMCC_SAMPLE opts every harness run into interval sampling.
    if (const auto spec = cli::envValue("TMCC_SAMPLE"))
        parseSampleSpec("TMCC_SAMPLE", *spec, cfg);
    return cfg;
}

/** Run one configuration (through the runner, so it shares the
 * phase-split accounting with batch runs). */
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
        const std::string path =
            cli::envValue("TMCC_BENCH_DIR").value_or(".") + "/BENCH_" +
            name_ + ".json";
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            warn("cannot write bench report " + path);
            return;
        }
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"bench\": \"%s\",\n",
                     jsonEscape(name_).c_str());
        std::fprintf(f, "  \"wall_seconds\": %.3f,\n", wall);
        // Worker threads and the setup/measured wall-clock split across
        // every run this process dispatched.
        const SimRunner::PhaseTotals phases = SimRunner::phaseTotals();
        std::fprintf(f, "  \"jobs\": %u,\n", phases.jobs);
        std::fprintf(f, "  \"quick\": %s,\n",
                     quickEnabled() ? "true" : "false");
        std::fprintf(f, "  \"setup_seconds\": %.3f,\n",
                     phases.setupSeconds);
        std::fprintf(f, "  \"measure_seconds\": %.3f,\n",
                     phases.measureSeconds);
        std::fprintf(f, "  \"runs\": %llu,\n",
                     static_cast<unsigned long long>(phases.runs));
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
