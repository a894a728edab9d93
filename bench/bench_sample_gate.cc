/**
 * @file
 * Sampling accuracy gate: run fig17/fig21-style configurations in
 * exact mode and in `--sample` interval-sampling mode, and fail
 * (nonzero exit) if any headline metric's sampled estimate strays from
 * the exact value by more than
 *
 *     max(1.5 x ci95, 2% of the exact value, a small absolute floor)
 *
 * The absolute floor keeps near-zero metrics (e.g. bus utilization of
 * a tiny quick-scale run) from failing on noise the relative bound
 * cannot absorb.  CI runs it twice, under TMCC_QUICK=1 and at full
 * scale; the simulated values do not depend on the host, so both
 * runs are deterministic.
 */

#include <cmath>
#include <cstring>

#include "bench/bench_util.hh"

using namespace tmcc;
using namespace tmcc::bench;

namespace
{

double
frac(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

/** The exact-mode value of each sampled headline metric. */
double
exactValue(const std::string &name, const SimResult &r)
{
    if (name == "accesses_per_ns")
        return r.accessesPerNs();
    if (name == "tlb_miss_rate")
        return frac(r.tlbMisses, r.tlbHits + r.tlbMisses);
    if (name == "llc_misses_per_kacc")
        return 1000.0 * frac(r.llcMisses, r.accesses);
    if (name == "llc_writebacks_per_kacc")
        return 1000.0 * frac(r.llcWritebacks, r.accesses);
    if (name == "cte_hit_rate")
        return frac(r.cteHits, r.cteHits + r.cteMisses);
    if (name == "ml2_access_rate")
        return frac(r.ml2Accesses, r.llcMisses + r.llcWritebacks);
    if (name == "l3_miss_latency_ns")
        return r.l3MissLatency.count()
                   ? r.l3MissLatency.sampleSum() /
                         static_cast<double>(r.l3MissLatency.count())
                   : 0.0;
    if (name == "page_walk_latency_ns")
        return r.pageWalkLatency.count()
                   ? r.pageWalkLatency.sampleSum() /
                         static_cast<double>(r.pageWalkLatency.count())
                   : 0.0;
    if (name == "read_bus_util")
        return r.readBusUtil;
    if (name == "write_bus_util")
        return r.writeBusUtil;
    fatal("sample gate knows no exact mapping for metric " + name);
}

/** Units-aware absolute error floor per metric. */
double
absFloor(const std::string &name)
{
    if (name == "l3_miss_latency_ns" || name == "page_walk_latency_ns")
        return 2.0; // ns
    if (name == "llc_misses_per_kacc" ||
        name == "llc_writebacks_per_kacc")
        return 1.0; // events per 1000 accesses
    if (name == "accesses_per_ns")
        return 0.01;
    return 0.02; // rates / utilizations in [0, 1]
}

} // namespace

int
main()
{
    BenchReport report("sample_gate");
    header("Sampling accuracy gate: --sample vs. exact mode",
           "every headline metric within max(1.5xCI95, 2%, floor) of "
           "the exact run");

    struct Case
    {
        const char *workload;
        Arch arch;
        const char *tag;
    };
    // fig17's comparison pair (Compresso vs. TMCC throughput) plus
    // fig21's subject (TMCC ML2 access rate) on an irregular workload.
    const Case cases[] = {
        {"pageRank", Arch::Compresso, "compresso"},
        {"pageRank", Arch::Tmcc, "tmcc"},
        {"mcf", Arch::Tmcc, "tmcc"},
    };

    std::printf("%-14s %-10s %-24s %12s %12s %10s %s\n", "workload",
                "arch", "metric", "exact", "sampled", "tol", "ok");

    unsigned failures = 0;
    double speedup_sum = 0.0;
    unsigned speedup_n = 0;
    for (const Case &c : cases) {
        SimConfig exact_cfg = baseConfig(c.workload, c.arch);
        exact_cfg.sampleWindows = 0; // the reference run is exact
        exact_cfg.sampleWindowAccesses = 0;
        exact_cfg.sampleWarmAccesses = 0;

        SimConfig sampled_cfg = exact_cfg;
        // Fixed window geometry: functional warming carries the
        // long-history state, so 1000-access windows with a 500-access
        // detailed warm-up are accurate at any measured-phase length,
        // and the detail fraction (and with it the speedup) improves
        // as the measured phase grows.
        sampled_cfg.sampleWindows = 10;
        sampled_cfg.sampleWindowAccesses = std::min<std::uint64_t>(
            1000, std::max<std::uint64_t>(1,
                                          exact_cfg.measureAccesses / 15));
        sampled_cfg.sampleWarmAccesses =
            std::max<std::uint64_t>(1,
                                    sampled_cfg.sampleWindowAccesses / 2);

        const SimResult exact = run(exact_cfg);
        const SimResult sampled = run(sampled_cfg);

        const std::string key = std::string(c.workload) + "." + c.tag;
        if (exact.measureSeconds > 0.0 &&
            sampled.measureSeconds > 0.0) {
            const double sp =
                exact.measureSeconds / sampled.measureSeconds;
            report.metric(key + ".measured_phase_speedup", sp);
            speedup_sum += sp;
            ++speedup_n;
        }

        for (const SampleMetric &m : sampled.sample.metrics) {
            const double ev = exactValue(m.name, exact);
            const double tol = std::max(
                {1.5 * m.ci95, 0.02 * std::fabs(ev), absFloor(m.name)});
            const bool ok = std::fabs(m.mean - ev) <= tol;
            failures += ok ? 0 : 1;
            std::printf("%-14s %-10s %-24s %12.5g %12.5g %10.4g %s\n",
                        c.workload, c.tag, m.name.c_str(), ev, m.mean,
                        tol, ok ? "ok" : "FAIL");
            report.metric(key + "." + m.name + ".exact", ev);
            report.metric(key + "." + m.name + ".sampled", m.mean);
            report.metric(key + "." + m.name + ".ci95", m.ci95);
            report.metric(key + "." + m.name + ".ok", ok ? 1.0 : 0.0);
        }
    }
    if (speedup_n)
        report.metric("avg.measured_phase_speedup",
                      speedup_sum / speedup_n);
    report.metric("gate.failures", failures);

    if (failures) {
        std::fprintf(stderr,
                     "sample gate: %u metric(s) outside tolerance\n",
                     failures);
        return 1;
    }
    std::printf("sample gate: all metrics within tolerance\n");
    return 0;
}
