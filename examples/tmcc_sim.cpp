/**
 * @file
 * tmcc_sim: the command-line front end to the simulator — run any
 * workload under any architecture/configuration without writing code.
 *
 * `tmccsim --help` lists every flag, generated from the flag table in
 * main().  A recorded trace replays as a workload: --workload trace:FILE
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "common/trace.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "workloads/trace.hh"

using namespace tmcc;

namespace
{

/** One row of a sweep: a workload, optionally pinned to an arch (the
 * cross-arch sets), and the label metrics are reported under. */
struct SweepEntry
{
    std::string label;
    std::string workload;
    bool hasArch = false;
    Arch arch = Arch::Tmcc;
};

std::vector<SweepEntry>
sweepSet(const std::string &set)
{
    std::vector<SweepEntry> entries;
    if (set == "large" || set == "all")
        for (const auto &n : largeWorkloadNames())
            entries.push_back({n, n});
    if (set == "small" || set == "all")
        for (const auto &n : smallWorkloadNames())
            entries.push_back({n, n});
    if (set == "bandwidth" || set == "all")
        for (const auto &n : bandwidthWorkloadNames())
            entries.push_back({n, n});
    if (set == "fig17")
        // The paper's headline comparison: every large/irregular
        // workload under Compresso and TMCC.  Each workload appears
        // twice, so labels carry the arch to keep metric keys unique.
        for (const auto &n : largeWorkloadNames())
            for (const Arch a : {Arch::Compresso, Arch::Tmcc})
                entries.push_back(
                    {n + ":" + archName(a), n, true, a});
    if (entries.empty())
        fatal("--sweep wants large|small|bandwidth|all|fig17, got '" + set +
              "'");
    return entries;
}

/** Epoch time series as JSON: one entry per run, one row per epoch. */
void
writeEpochStats(const std::string &path,
                const std::vector<std::string> &names,
                const std::vector<SimResult> &results)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write epoch stats to " + path);
    std::fprintf(f, "{\"runs\":[");
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::fprintf(f, "%s\n{\"workload\":\"%s\",\"epochs\":[",
                     i ? "," : "", jsonEscape(names[i]).c_str());
        const auto &epochs = results[i].epochs;
        for (std::size_t e = 0; e < epochs.size(); ++e) {
            const EpochStat &ep = epochs[e];
            std::fprintf(
                f,
                "%s\n{\"accesses\":%llu,\"delta_accesses\":%llu,"
                "\"end_ns\":%.4f,\"ml2_access_rate\":%.6g,"
                "\"cte_hit_rate\":%.6g,\"dram_used_mb\":%.6g}",
                e ? "," : "",
                static_cast<unsigned long long>(ep.accesses),
                static_cast<unsigned long long>(ep.deltaAccesses),
                ticksToNs(ep.endTick), ep.ml2AccessRate, ep.cteHitRate,
                ep.dramUsedBytes / (1 << 20));
        }
        std::fprintf(f, "\n]}");
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

void
listWorkloads()
{
    std::printf("large/irregular:");
    for (const auto &n : largeWorkloadNames())
        std::printf(" %s", n.c_str());
    std::printf("\nsmall/regular:  ");
    for (const auto &n : smallWorkloadNames())
        std::printf(" %s", n.c_str());
    std::printf("\nbandwidth:      ");
    for (const auto &n : bandwidthWorkloadNames())
        std::printf(" %s", n.c_str());
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    SimConfig cfg = SimConfig::scaledDefault();
    bool dump_all = false;
    bool scale_set = false;
    std::string sweep;
    unsigned jobs = 0;

    // Observability knobs.
    std::string trace_path;
    std::string stats_out;

    // One row per flag: parsing, environment defaults and --help all
    // come from this table.
    const std::vector<cli::Flag> flags = {
        {"--workload", "NAME",
         "benchmark name (default pageRank, see --list); trace:FILE "
         "replays a recorded trace",
         cli::bind(cfg.workload)},
        {"--arch", "A",
         "none|compresso|barebone|barebone+ml1|barebone+ml2|tmcc "
         "(default tmcc)",
         cli::bind(cfg.arch)},
        {"--scale", "F", "footprint scale (default: the workload's preset)",
         [&](auto &what, auto &v) {
             cfg.scale = cli::parseNumber(what, v[0], cli::kPositive);
             scale_set = true;
         }},
        {"--cores", "N", "core count (default 4)", cli::bind(cfg.cores, 1)},
        {"--budget", "F",
         "DRAM usage target as a fraction of the footprint (default 0: "
         "match Compresso)",
         cli::bind(cfg.dramBudgetFraction, 0.0)},
        {"--huge", "", "use 2MB pages", cli::bind(cfg.hugePages)},
        {"--no-prefetch", "", "disable prefetchers",
         [&](auto &, auto &) { cfg.hierarchy.prefetchers = false; }},
        {"--tlb", "N", "TLB entries", cli::bind(cfg.tlbEntries, 1)},
        {"--cte-cache", "BYTES", "TMCC/OS CTE cache size",
         cli::bind(cfg.osMc.cteCacheBytes, 1)},
        {"--measure", "N", "measured accesses per core",
         cli::bind(cfg.measureAccesses, 1)},
        {"--seed", "N", "RNG seed", cli::bind(cfg.seed, 0)},
        {"--stats", "", "dump every component counter", cli::bind(dump_all)},
        {"--trace", "FILE",
         "write a Chrome trace-event / Perfetto JSON trace of the run",
         cli::bind(trace_path), "TMCC_TRACE"},
        {"--stats-interval", "N",
         "snapshot epoch statistics every N measured accesses",
         cli::bind(cfg.statsInterval, 1), "TMCC_STATS_INTERVAL"},
        {"--sample", "K:W[:WARM]",
         "SMARTS-style interval sampling: K evenly spaced detailed windows "
         "of W accesses/core, each after WARM (default W) accesses/core of "
         "warm-up, fast-forwarded in between; metrics are mean +/- 95% CI",
         [&](auto &what, auto &v) { parseSampleSpec(what, v[0], cfg); },
         "TMCC_SAMPLE"},
        {"--stats-out", "FILE", "write the epoch time series as JSON",
         cli::bind(stats_out)},
        {"--record", "FILE N",
         "record N accesses of the workload to FILE (no simulation) and "
         "exit",
         [&](auto &what, auto &v) {
             const auto n = cli::parseNumber(what, v[1], std::uint64_t{1});
             auto wl = makeWorkload(cfg.workload, 0, cfg.cores, cfg.scale,
                                    cfg.seed);
             TraceRecorder::record(*wl, v[0], n);
             std::printf("recorded %llu accesses of %s to %s\n",
                         static_cast<unsigned long long>(n),
                         cfg.workload.c_str(), v[0].c_str());
             std::exit(0);
         }},
        {"--sweep", "SET",
         "run every entry of SET in parallel, one row each: large|small|"
         "bandwidth|all under the configured arch, fig17 = large x "
         "{compresso,tmcc}",
         cli::bind(sweep)},
        {"--jobs", "N",
         "worker threads for --sweep (default: TMCC_JOBS or all cores)",
         cli::bind(jobs, 1)},
        {"--list", "", "list known workloads and exit",
         [](auto &, auto &) { listWorkloads(); std::exit(0); }},
    };
    cli::parse("Usage: tmccsim [options]\n\nRun one workload, or a sweep "
               "of workloads, under any MC architecture and\n"
               "configuration.\n",
               flags, argc, argv);

    std::unique_ptr<Tracer> tracer;
    if (!trace_path.empty()) {
        tracer = std::make_unique<Tracer>(trace_path);
        Tracer::setActive(tracer.get());
    }
    auto flush_trace = [&] {
        if (!tracer)
            return;
        Tracer::setActive(nullptr);
        tracer->finish();
        std::printf("trace               %s (%zu events%s)\n",
                    tracer->path().c_str(), tracer->eventCount(),
                    tracer->droppedEvents()
                        ? (", " +
                           std::to_string(tracer->droppedEvents()) +
                           " dropped")
                              .c_str()
                        : "");
    };

    if (!sweep.empty()) {
        const std::vector<SweepEntry> entries = sweepSet(sweep);
        std::vector<std::string> names;
        std::vector<SimConfig> configs;
        for (const auto &e : entries) {
            SimConfig c = cfg;
            c.workload = e.workload;
            if (e.hasArch)
                c.arch = e.arch;
            if (!scale_set)
                applyScalePreset(c);
            names.push_back(e.label);
            configs.push_back(c);
        }
        const char *arch_label =
            sweep == "fig17" ? "per-entry" : archName(cfg.arch);

        bench::BenchReport report("sweep_" + sweep);
        SimRunner runner(jobs);
        std::printf("sweeping %zu entries (%s) on %u threads, arch %s\n",
                    configs.size(), sweep.c_str(), runner.jobs(),
                    arch_label);
        std::vector<SimResult> results;
        try {
            results = runner.run(configs);
        } catch (const std::exception &e) {
            // A failed run must fail the sweep visibly: CI keys off
            // the exit status, not logs.
            std::fprintf(stderr, "sweep failed: %s\n", e.what());
            flush_trace();
            return 1;
        }

        std::printf("%-14s %10s %10s %10s %10s\n", "workload",
                    "acc/us", "ratio", "l3lat_ns", "bus_util");
        for (std::size_t i = 0; i < names.size(); ++i) {
            const SimResult &r = results[i];
            std::printf("%-14s %10.1f %10.2f %10.1f %10.3f\n",
                        names[i].c_str(), r.accessesPerNs() * 1000.0,
                        r.compressionRatio(), r.avgL3MissLatencyNs,
                        r.readBusUtil + r.writeBusUtil);
            report.metric(names[i] + ".acc_per_us",
                          r.accessesPerNs() * 1000.0);
            report.metric(names[i] + ".ratio", r.compressionRatio());
            report.metric(names[i] + ".l3lat_ns", r.avgL3MissLatencyNs);
            report.metric(names[i] + ".bus_util",
                          r.readBusUtil + r.writeBusUtil);
        }
        if (!stats_out.empty()) {
            writeEpochStats(stats_out, names, results);
            std::printf("epoch stats written to %s\n",
                        stats_out.c_str());
        }
        flush_trace();
        return 0;
    }

    if (!scale_set)
        applyScalePreset(cfg);

    const SimResult r = runConfigs({cfg}, 1).front();

    std::printf("workload            %s\n", cfg.workload.c_str());
    std::printf("architecture        %s\n", archName(cfg.arch));
    std::printf("footprint           %.1f MB\n",
                static_cast<double>(r.footprintBytes) / (1 << 20));
    std::printf("dram used           %.1f MB (ratio %.2fx)\n",
                static_cast<double>(r.dramUsedBytes) / (1 << 20),
                r.compressionRatio());
    std::printf("performance         %.1f accesses/us (%.4f stores/"
                "cycle)\n",
                r.accessesPerNs() * 1000.0, r.storesPerCycle());
    std::printf("avg L3 miss latency %.1f ns\n", r.avgL3MissLatencyNs);
    // n / d, or 0 when nothing was counted.
    const auto share = [](std::uint64_t n, std::uint64_t d) {
        return d ? static_cast<double>(n) / static_cast<double>(d) : 0.0;
    };
    std::printf("TLB miss rate       %.4f\n",
                share(r.tlbMisses, r.tlbHits + r.tlbMisses));
    if (cfg.arch != Arch::NoCompression) {
        std::printf("CTE$ hit rate       %.4f\n",
                    share(r.cteHits, r.cteHits + r.cteMisses));
        std::printf("ML1 access split    hit %.3f / parallel %.3f / "
                    "mismatch %.3f / serial %.3f\n",
                    share(r.ml1CteHit, r.llcMisses),
                    share(r.ml1Parallel, r.llcMisses),
                    share(r.ml1Mismatch, r.llcMisses),
                    share(r.ml1Serial, r.llcMisses));
        std::printf("ML2 accesses        %lu (%.4f per LLC miss)\n",
                    static_cast<unsigned long>(r.ml2Accesses),
                    share(r.ml2Accesses, r.llcMisses));
    }
    std::printf("bus utilization     read %.3f write %.3f\n",
                r.readBusUtil, r.writeBusUtil);
    std::printf("wall clock          setup %.2fs + measured %.2fs\n",
                r.setupSeconds, r.measureSeconds);

    if (r.sample.windows > 0) {
        std::printf("sampling            %llu windows x %llu accesses "
                    "(+%llu warm-up) per core, %llu fast-forwarded\n",
                    static_cast<unsigned long long>(r.sample.windows),
                    static_cast<unsigned long long>(
                        r.sample.windowAccesses),
                    static_cast<unsigned long long>(
                        r.sample.warmupAccesses),
                    static_cast<unsigned long long>(
                        r.sample.ffAccesses));
        for (const SampleMetric &m : r.sample.metrics)
            std::printf("  %-24s %12.5g +/- %.5g (95%% CI)\n",
                        m.name.c_str(), m.mean, m.ci95);
    }

    if (!r.epochs.empty()) {
        const EpochStat &last = r.epochs.back();
        std::printf("epochs              %zu snapshots (every %llu "
                    "accesses); last: ml2_rate %.4f cte_hit %.4f "
                    "dram %.1f MB\n",
                    r.epochs.size(),
                    static_cast<unsigned long long>(cfg.statsInterval),
                    last.ml2AccessRate, last.cteHitRate,
                    last.dramUsedBytes / (1 << 20));
    }
    if (!stats_out.empty()) {
        writeEpochStats(stats_out, {cfg.workload}, {r});
        std::printf("epoch stats written to %s\n", stats_out.c_str());
    }
    flush_trace();

    if (dump_all) {
        std::printf("\n--- component counters ---\n");
        std::string out;
        for (const auto &[name, v] : r.stats.all())
            std::printf("%-48s %g\n", name.c_str(), v);
    }
    return 0;
}
