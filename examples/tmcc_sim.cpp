/**
 * @file
 * tmcc_sim: the command-line front end to the simulator — run any
 * workload under any architecture/configuration without writing code.
 *
 * Usage: tmcc_sim [options]
 *   --workload NAME       benchmark name (default pageRank)
 *   --arch A              none|compresso|barebone|barebone+ml1|
 *                         barebone+ml2|tmcc (default tmcc)
 *   --scale F             footprint scale (default preset)
 *   --cores N             core count (default 4)
 *   --budget F            DRAM usage target as a fraction of the
 *                         footprint (default: match Compresso)
 *   --huge                use 2MB pages
 *   --no-prefetch         disable prefetchers
 *   --tlb N               TLB entries
 *   --cte-cache BYTES     TMCC/OS CTE cache size
 *   --measure N           measured accesses per core
 *   --seed N              RNG seed
 *   --fault-ml2 R         per-bit flip rate injected into ML2 images
 *   --fault-cte R         per-bit flip rate injected into embedded CTEs
 *   --fault-ptb R         per-bit flip rate injected into compressed PTBs
 *   --fault-seed N        fault-injection RNG seed
 *   --stats               dump every component counter
 *   --trace FILE          write a Chrome trace-event / Perfetto JSON
 *                         trace of the run (env: TMCC_TRACE)
 *   --stats-interval N    snapshot epoch statistics every N measured
 *                         accesses (env: TMCC_STATS_INTERVAL)
 *   --kernel MODE         measured-loop implementation: scalar|batch
 *                         (default batch; scalar is the bit-identical
 *                         reference oracle; env: TMCC_KERNEL)
 *   --sample K:W[:WARM]   SMARTS-style interval sampling: fast-forward
 *                         functionally between K evenly spaced detailed
 *                         windows of W accesses/core (each preceded by
 *                         WARM accesses/core of detailed warm-up,
 *                         default W); headline metrics are reported as
 *                         mean +/- 95% CI over the windows
 *                         (env: TMCC_SAMPLE)
 *   --stats-out FILE      write the epoch time series as JSON
 *   --record FILE N       record N accesses of the workload to FILE
 *                         (no simulation) and exit
 *   --tenants N           memcloud only: guest address spaces
 *                         multiplexed on the host (default 6, max 1024)
 *   --tenant-churn R      memcloud only: per-burst probability the
 *                         scheduled guest has been replaced (default
 *                         0.001)
 *   --tenant-zipf A       memcloud only: tenant popularity Zipf alpha
 *                         (default 1.1)
 *   --sweep SET           run every entry of SET (large|small|
 *                         bandwidth|all under the configured arch,
 *                         fig17 = large x {compresso,tmcc}, or
 *                         memcloud = memcloud x {barebone,compresso,
 *                         tmcc}), in parallel, one row per entry
 *   --jobs N              worker threads for --sweep (default:
 *                         TMCC_JOBS or all cores)
 *   --dispatch MODE       how --sweep executes (docs/SWEEP.md):
 *                           thread  in-process SimRunner (default)
 *                           fork    a private work queue under
 *                                   --sweep-dir served by --shards
 *                                   local worker processes
 *                           queue   enqueue on a shared work queue
 *                                   served by tmcc_simd daemons
 *   --shards N            shard count (and local worker count) for
 *                         fork/queue dispatch (env: TMCC_SHARDS;
 *                         unset/0 with --dispatch=fork|queue defaults
 *                         to hardware_concurrency clamped to [1,64];
 *                         --shards N alone implies --dispatch=fork)
 *   --queue-dir DIR       queue directory for --dispatch=queue (env:
 *                         TMCC_QUEUE_DIR; default tmcc-queue); shared
 *                         with the tmcc_simd workers serving it
 *   --queue-poll SEC      result-poll interval (default 0.5)
 *   --queue-timeout SEC   give up waiting for workers after SEC
 *                         (default: wait forever)
 *   --sweep-dir DIR       fork: the private queue directory; reuse it
 *                         to resume an interrupted sweep (default:
 *                         tmcc-sweep-<gridkey8>).  queue: the sweep's
 *                         subdirectory name in the queue directory
 *   --shard-timeout SEC   per-attempt deadline; a claim past it is
 *                         reclaimed (and a local worker holding it
 *                         killed) even while it heartbeats (default:
 *                         none)
 *   --shard-attempts N    attempts per shard before it settles as
 *                         failed (default: 3)
 *   --ckpt-dir DIR        persist setup checkpoints to DIR and restore
 *                         from them on later runs (env: TMCC_CKPT_DIR;
 *                         TMCC_CKPT=0 disables checkpointing entirely)
 *   --list                list known workloads and exit
 *
 * A recorded trace replays as a workload: --workload trace:FILE
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/json.hh"
#include "common/trace.hh"
#include "sim/checkpoint.hh"
#include "sim/runner.hh"
#include "sim/sweep_daemon.hh"
#include "sim/sweep_manifest.hh"
#include "sim/system.hh"
#include "workloads/trace.hh"

#include <unistd.h>

using namespace tmcc;

namespace
{

Arch
archByName(const std::string &name)
{
    if (name == "none" || name == "nocomp")
        return Arch::NoCompression;
    if (name == "compresso")
        return Arch::Compresso;
    if (name == "barebone")
        return Arch::Barebone;
    if (name == "barebone+ml1")
        return Arch::BarebonePlusMl1;
    if (name == "barebone+ml2")
        return Arch::BarebonePlusMl2;
    if (name == "tmcc")
        return Arch::Tmcc;
    std::fprintf(stderr, "unknown arch '%s'\n", name.c_str());
    std::exit(1);
}

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
        // workload under Compresso and TMCC.  Labels carry the arch so
        // serial and distributed runs report identical metric keys.
        for (const auto &n : largeWorkloadNames())
            for (const Arch a : {Arch::Compresso, Arch::Tmcc})
                entries.push_back(
                    {n + ":" + archName(a), n, true, a});
    if (set == "memcloud")
        // The multi-tenant scenario under each interesting MC: how much
        // tenant-tail isolation each architecture preserves.
        for (const Arch a :
             {Arch::Barebone, Arch::Compresso, Arch::Tmcc})
            entries.push_back({std::string("memcloud:") + archName(a),
                               "memcloud", true, a});
    if (entries.empty()) {
        std::fprintf(stderr,
                     "--sweep wants large|small|bandwidth|all|fig17|"
                     "memcloud, got '%s'\n",
                     set.c_str());
        std::exit(1);
    }
    return entries;
}

std::uint64_t
parsePositiveCount(const char *s, const char *what)
{
    char *end = nullptr;
    const long long v = std::strtoll(s, &end, 10);
    if (s[0] == '\0' || *end != '\0' || v <= 0) {
        std::fprintf(stderr, "%s must be a positive integer, got "
                             "\"%s\"\n",
                     what, s);
        std::exit(1);
    }
    return static_cast<std::uint64_t>(v);
}

std::uint64_t
parseNonNegativeCount(const char *s, const char *what)
{
    char *end = nullptr;
    const long long v = std::strtoll(s, &end, 10);
    if (s[0] == '\0' || *end != '\0' || v < 0) {
        std::fprintf(stderr, "%s must be a non-negative integer, got "
                             "\"%s\"\n",
                     what, s);
        std::exit(1);
    }
    return static_cast<std::uint64_t>(v);
}

/** Strict [0, 1] rate for the --fault-* flags: std::atof would turn
 * garbage into a silent 0.0 (faults off), which is the worst possible
 * failure mode for a fault-injection campaign. */
double
parseRate(const char *s, const char *what)
{
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (s[0] == '\0' || *end != '\0' || !std::isfinite(v) || v < 0.0 ||
        v > 1.0) {
        std::fprintf(stderr, "%s must be a rate in [0, 1], got "
                             "\"%s\"\n",
                     what, s);
        std::exit(1);
    }
    return v;
}

/** Strict positive real for --tenant-zipf: a silently-zero alpha would
 * trip the workload's fatal check with a worse message. */
double
parsePositiveReal(const char *s, const char *what)
{
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (s[0] == '\0' || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
        std::fprintf(stderr, "%s must be a positive number, got "
                             "\"%s\"\n",
                     what, s);
        std::exit(1);
    }
    return v;
}

double
parsePositiveSeconds(const char *s, const char *what)
{
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (s[0] == '\0' || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
        std::fprintf(stderr, "%s must be a positive number of seconds, "
                             "got \"%s\"\n",
                     what, s);
        std::exit(1);
    }
    return v;
}

/** The path workers re-exec: /proc/self/exe when resolvable (robust
 * against a relative argv[0] + chdir), else argv[0]. */
std::string
selfExePath(const char *argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

/** Epoch time series as JSON: one entry per run, one row per epoch. */
void
writeEpochStats(const std::string &path,
                const std::vector<std::string> &names,
                const std::vector<const SimResult *> &results)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write epoch stats to %s\n",
                     path.c_str());
        std::exit(1);
    }
    std::fprintf(f, "{\"runs\":[");
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::fprintf(f, "%s\n{\"workload\":\"%s\",\"epochs\":[",
                     i ? "," : "", jsonEscape(names[i]).c_str());
        const auto &epochs = results[i]->epochs;
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
    // The CLI defaults to the batched kernel: it is bit-identical to
    // the scalar oracle (tests/sim/kernel_identity_test.cc) and much
    // faster.  The library default stays Scalar so programmatic users
    // opt in explicitly.
    cfg.kernel = KernelMode::Batch;
    bool dump_all = false;
    bool scale_set = false;
    std::string sweep;
    std::string tenant_flag; //!< last --tenant* flag seen (validation)
    unsigned jobs = 0;

    // Sharded-sweep knobs (docs/SWEEP.md).
    unsigned shards = 0;
    bool shards_flag = false; //!< --shards given on the command line
    std::string sweep_dir;
    double shard_timeout = 0.0;
    unsigned shard_attempts = 3;
    if (const char *env = std::getenv("TMCC_SHARDS"); env && *env)
        shards = static_cast<unsigned>(
            parseNonNegativeCount(env, "TMCC_SHARDS"));

    // Queue-dispatch knobs (docs/SWEEP.md).
    std::string dispatch;
    std::string queue_dir = "tmcc-queue";
    double queue_poll = 0.5;
    double queue_timeout = 0.0;
    if (const char *env = std::getenv("TMCC_QUEUE_DIR"); env && *env)
        queue_dir = env;

    // Observability knobs: environment supplies the defaults, the
    // command line overrides (validated identically either way).
    std::string trace_path;
    std::string stats_out;
    if (const char *env = std::getenv("TMCC_TRACE"); env && *env)
        trace_path = env;
    if (const char *env = std::getenv("TMCC_STATS_INTERVAL");
        env && *env)
        cfg.statsInterval =
            parsePositiveCount(env, "TMCC_STATS_INTERVAL");
    if (const char *env = std::getenv("TMCC_KERNEL"); env && *env)
        cfg.kernel = parseKernelMode("TMCC_KERNEL", env);
    if (const char *env = std::getenv("TMCC_SAMPLE"); env && *env)
        parseSampleSpec("TMCC_SAMPLE", env, cfg);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            cfg.workload = value();
        } else if (arg == "--arch") {
            cfg.arch = archByName(value());
        } else if (arg == "--scale") {
            cfg.scale = std::atof(value());
            scale_set = true;
        } else if (arg == "--cores") {
            cfg.cores = static_cast<unsigned>(std::atoi(value()));
        } else if (arg == "--budget") {
            cfg.dramBudgetFraction = std::atof(value());
        } else if (arg == "--huge") {
            cfg.hugePages = true;
        } else if (arg == "--no-prefetch") {
            cfg.hierarchy.prefetchers = false;
        } else if (arg == "--tlb") {
            cfg.tlbEntries = static_cast<unsigned>(std::atoi(value()));
        } else if (arg == "--cte-cache") {
            cfg.osMc.cteCacheBytes =
                static_cast<std::size_t>(std::atoll(value()));
        } else if (arg == "--measure") {
            cfg.measureAccesses =
                static_cast<std::uint64_t>(std::atoll(value()));
        } else if (arg == "--seed") {
            cfg.seed = static_cast<std::uint64_t>(std::atoll(value()));
        } else if (arg == "--fault-ml2") {
            cfg.osMc.faults.ml2BitFlipRate =
                parseRate(value(), "--fault-ml2");
        } else if (arg == "--fault-cte") {
            cfg.osMc.faults.cteBitFlipRate =
                parseRate(value(), "--fault-cte");
        } else if (arg == "--fault-ptb") {
            cfg.osMc.faults.ptbBitFlipRate =
                parseRate(value(), "--fault-ptb");
        } else if (arg == "--fault-seed") {
            cfg.osMc.faults.seed =
                parseNonNegativeCount(value(), "--fault-seed");
        } else if (arg == "--stats") {
            dump_all = true;
        } else if (arg == "--trace") {
            trace_path = value();
        } else if (arg.rfind("--trace=", 0) == 0) {
            trace_path = arg.substr(std::strlen("--trace="));
        } else if (arg == "--stats-interval") {
            cfg.statsInterval =
                parsePositiveCount(value(), "--stats-interval");
        } else if (arg.rfind("--stats-interval=", 0) == 0) {
            cfg.statsInterval = parsePositiveCount(
                arg.c_str() + std::strlen("--stats-interval="),
                "--stats-interval");
        } else if (arg == "--kernel") {
            cfg.kernel = parseKernelMode("--kernel", value());
        } else if (arg.rfind("--kernel=", 0) == 0) {
            cfg.kernel = parseKernelMode(
                "--kernel", arg.substr(std::strlen("--kernel=")));
        } else if (arg == "--sample") {
            parseSampleSpec("--sample", value(), cfg);
        } else if (arg.rfind("--sample=", 0) == 0) {
            parseSampleSpec("--sample",
                            arg.substr(std::strlen("--sample=")), cfg);
        } else if (arg == "--stats-out") {
            stats_out = value();
        } else if (arg.rfind("--stats-out=", 0) == 0) {
            stats_out = arg.substr(std::strlen("--stats-out="));
        } else if (arg == "--record") {
            const std::string path = value();
            const auto n =
                static_cast<std::uint64_t>(std::atoll(value()));
            auto wl = makeWorkload(cfg.workload, 0, cfg.cores,
                                   cfg.scale, cfg.seed);
            TraceRecorder::record(*wl, path, n);
            std::printf("recorded %llu accesses of %s to %s\n",
                        static_cast<unsigned long long>(n),
                        cfg.workload.c_str(), path.c_str());
            return 0;
        } else if (arg == "--tenants") {
            const std::uint64_t v =
                parsePositiveCount(value(), "--tenants");
            if (v > 1024) {
                std::fprintf(stderr,
                             "--tenants caps at 1024, got %llu\n",
                             static_cast<unsigned long long>(v));
                return 1;
            }
            cfg.tenants = static_cast<unsigned>(v);
            tenant_flag = "--tenants";
        } else if (arg == "--tenant-churn") {
            cfg.tenantChurn = parseRate(value(), "--tenant-churn");
            tenant_flag = "--tenant-churn";
        } else if (arg == "--tenant-zipf") {
            cfg.tenantZipf =
                parsePositiveReal(value(), "--tenant-zipf");
            tenant_flag = "--tenant-zipf";
        } else if (arg == "--sweep") {
            sweep = value();
        } else if (arg == "--shards") {
            shards = static_cast<unsigned>(
                parseNonNegativeCount(value(), "--shards"));
            shards_flag = true;
        } else if (arg == "--dispatch") {
            dispatch = value();
        } else if (arg.rfind("--dispatch=", 0) == 0) {
            dispatch = arg.substr(std::strlen("--dispatch="));
        } else if (arg == "--queue-dir") {
            queue_dir = value();
        } else if (arg.rfind("--queue-dir=", 0) == 0) {
            queue_dir = arg.substr(std::strlen("--queue-dir="));
        } else if (arg == "--queue-poll") {
            queue_poll = parsePositiveSeconds(value(), "--queue-poll");
        } else if (arg == "--queue-timeout") {
            queue_timeout =
                parsePositiveSeconds(value(), "--queue-timeout");
        } else if (arg == "--sweep-dir") {
            sweep_dir = value();
        } else if (arg == "--shard-timeout") {
            shard_timeout =
                parsePositiveSeconds(value(), "--shard-timeout");
        } else if (arg == "--shard-attempts") {
            shard_attempts = static_cast<unsigned>(
                parsePositiveCount(value(), "--shard-attempts"));
        } else if (arg == sweepWorkerFlag) {
            // Local worker of a --dispatch=fork sweep: drain the
            // private queue the parent spawned us on.
            return SweepDaemon::localWorkerMain(value());
        } else if (arg == "--ckpt-dir") {
            CheckpointStore::global().setDiskDir(value());
        } else if (arg.rfind("--ckpt-dir=", 0) == 0) {
            CheckpointStore::global().setDiskDir(
                arg.substr(std::strlen("--ckpt-dir=")));
        } else if (arg == "--jobs") {
            const int v = std::atoi(value());
            if (v <= 0) {
                std::fprintf(stderr,
                             "--jobs wants a positive integer\n");
                return 1;
            }
            jobs = static_cast<unsigned>(v);
        } else if (arg == "--list") {
            listWorkloads();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("see the header of examples/tmcc_sim.cpp\n");
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s (try --help)\n",
                         arg.c_str());
            return 1;
        }
    }

    // The tenant knobs only shape the memcloud engine; accepting them
    // elsewhere would silently do nothing.
    if (!tenant_flag.empty() && cfg.workload != "memcloud" &&
        sweep != "memcloud") {
        std::fprintf(stderr,
                     "%s only applies to --workload=memcloud or "
                     "--sweep=memcloud\n",
                     tenant_flag.c_str());
        return 1;
    }

    auto preset_scale = [&](SimConfig &c) {
        if (!scale_set &&
            (c.workload == "mcf" || c.workload == "omnetpp" ||
             c.workload == "canneal"))
            c.scale = 0.8;
    };

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

    // Resolve the dispatch mode up front so misuse fails fast.
    enum class Dispatch
    {
        Thread,
        Fork,
        Queue,
    };
    Dispatch dmode = Dispatch::Thread;
    if (dispatch.empty()) {
        // Back-compat: --shards N alone has always meant the forked
        // multi-process executor.
        dmode = shards > 0 ? Dispatch::Fork : Dispatch::Thread;
    } else if (dispatch == "thread") {
        if (shards_flag && shards > 0) {
            std::fprintf(stderr, "--dispatch=thread does not shard; "
                                 "drop --shards or pick fork|queue\n");
            return 1;
        }
        dmode = Dispatch::Thread;
    } else if (dispatch == "fork") {
        dmode = Dispatch::Fork;
    } else if (dispatch == "queue") {
        dmode = Dispatch::Queue;
    } else {
        std::fprintf(stderr,
                     "--dispatch wants thread|fork|queue, got '%s'\n",
                     dispatch.c_str());
        return 1;
    }
    if (!dispatch.empty() && sweep.empty()) {
        std::fprintf(stderr, "--dispatch only applies to --sweep\n");
        return 1;
    }
    if ((dmode == Dispatch::Fork || dmode == Dispatch::Queue) &&
        shards == 0)
        shards = defaultShardCount();

    if (!sweep.empty()) {
        const std::vector<SweepEntry> entries = sweepSet(sweep);
        std::vector<std::string> names;
        std::vector<SimConfig> configs;
        for (const auto &e : entries) {
            SimConfig c = cfg;
            c.workload = e.workload;
            if (e.hasArch)
                c.arch = e.arch;
            preset_scale(c);
            names.push_back(e.label);
            configs.push_back(c);
        }
        const char *arch_label = sweep == "fig17" || sweep == "memcloud"
                                     ? "per-entry"
                                     : archName(cfg.arch);

        // One merged BENCH_sweep_<set>.json whichever executor runs
        // the grid, so sharded and in-process sweeps are byte-for-byte
        // comparable (the queue-smoke CI job diffs exactly this).
        bench::BenchReport report("sweep_" + sweep);
        std::vector<SimResult> results;
        std::vector<bool> valid(configs.size(), true);
        bool sweep_ok = true;

        if (dmode != Dispatch::Thread) {
            QueueOptions qo;
            qo.shards = shards;
            qo.workerJobs = jobs ? jobs : 1;
            qo.maxAttempts = shard_attempts;
            qo.attemptSeconds = shard_timeout;
            qo.pollSeconds = queue_poll;
            qo.timeoutSeconds = queue_timeout;
            if (dmode == Dispatch::Fork) {
                // A private queue under the sweep dir, holding only
                // this sweep, served by local worker processes.
                qo.queueDir = !sweep_dir.empty()
                                  ? sweep_dir
                                  : "tmcc-sweep-" +
                                        sweepGridKey(configs).substr(0, 8);
                qo.sweepName = "sweep";
                qo.workerPath = selfExePath(argv[0]);
                std::printf("sweeping %zu entries (%s) across %u worker "
                            "processes, arch %s, sweep dir %s\n",
                            configs.size(), sweep.c_str(), shards,
                            arch_label, qo.queueDir.c_str());
            } else {
                qo.queueDir = queue_dir;
                qo.sweepName = sweep_dir; // subdirectory name when set
                std::printf("sweeping %zu entries (%s) via work queue %s "
                            "(%u shards), arch %s\n",
                            configs.size(), sweep.c_str(),
                            queue_dir.c_str(), shards, arch_label);
            }
            QueueClient client(qo);
            SweepOutcome outcome = client.run(configs);
            results = std::move(outcome.results);
            valid = outcome.resultValid;
            sweep_ok = outcome.ok();
            std::printf("[sweep] %u/%zu shards merged (%u resumed, %u "
                        "retries, %u failed)\n",
                        outcome.completedShards, outcome.shards.size(),
                        outcome.resumedShards, outcome.retries,
                        outcome.failedShards);
            for (const auto &shard : outcome.shards)
                if (shard.state != ShardState::Done)
                    std::fprintf(stderr,
                                 "[sweep] shard %u FAILED after %u "
                                 "attempts: %s\n",
                                 shard.id, shard.attempts,
                                 shard.lastError.c_str());
        } else {
            SimRunner runner(jobs);
            std::printf("sweeping %zu entries (%s) on %u threads, "
                        "arch %s\n",
                        configs.size(), sweep.c_str(), runner.jobs(),
                        arch_label);
            try {
                results = runner.run(configs);
            } catch (const std::exception &e) {
                // A failed run must fail the sweep visibly: CI keys off
                // the exit status, not logs.
                std::fprintf(stderr, "sweep failed: %s\n", e.what());
                flush_trace();
                return 1;
            }
        }

        std::printf("%-14s %10s %10s %10s %10s\n", "workload",
                    "acc/us", "ratio", "l3lat_ns", "bus_util");
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (!valid[i]) {
                std::printf("%-14s %10s\n", names[i].c_str(),
                            "FAILED");
                continue;
            }
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
            // Memcloud: the per-tenant fault-latency tail is the whole
            // point of the sweep — every dispatch mode must merge to
            // the same per-tenant keys (the bench-smoke CI diffs them).
            for (std::size_t t = 0; t < r.tenants.size(); ++t)
                report.metric(names[i] + ".tenant" + std::to_string(t) +
                                  ".ml2_fault_p99_ns",
                              r.tenants[t].ml2FaultLatency.percentile(
                                  0.99));
        }
        if (!stats_out.empty()) {
            std::vector<std::string> ok_names;
            std::vector<const SimResult *> ptrs;
            for (std::size_t i = 0; i < results.size(); ++i) {
                if (!valid[i])
                    continue;
                ok_names.push_back(names[i]);
                ptrs.push_back(&results[i]);
            }
            writeEpochStats(stats_out, ok_names, ptrs);
            std::printf("epoch stats written to %s\n",
                        stats_out.c_str());
        }
        flush_trace();
        if (!sweep_ok)
            std::fprintf(stderr,
                         "sweep finished with failed shards; partial "
                         "results merged, exiting nonzero\n");
        return sweep_ok ? 0 : 1;
    }

    preset_scale(cfg);

    // Through the runner so the setup phase goes via the checkpoint
    // store (a populated --ckpt-dir turns placement into a restore).
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
    std::printf("TLB miss rate       %.4f\n",
                r.tlbHits + r.tlbMisses
                    ? static_cast<double>(r.tlbMisses) /
                          static_cast<double>(r.tlbHits + r.tlbMisses)
                    : 0.0);
    if (cfg.arch != Arch::NoCompression) {
        std::printf("CTE$ hit rate       %.4f\n",
                    r.cteHits + r.cteMisses
                        ? static_cast<double>(r.cteHits) /
                              static_cast<double>(r.cteHits +
                                                  r.cteMisses)
                        : 0.0);
        std::printf("ML1 access split    hit %.3f / parallel %.3f / "
                    "mismatch %.3f / serial %.3f\n",
                    r.llcMisses ? static_cast<double>(r.ml1CteHit) /
                                      r.llcMisses
                                : 0.0,
                    r.llcMisses ? static_cast<double>(r.ml1Parallel) /
                                      r.llcMisses
                                : 0.0,
                    r.llcMisses ? static_cast<double>(r.ml1Mismatch) /
                                      r.llcMisses
                                : 0.0,
                    r.llcMisses ? static_cast<double>(r.ml1Serial) /
                                      r.llcMisses
                                : 0.0);
        std::printf("ML2 accesses        %lu (%.4f per LLC miss)\n",
                    static_cast<unsigned long>(r.ml2Accesses),
                    r.llcMisses ? static_cast<double>(r.ml2Accesses) /
                                      r.llcMisses
                                : 0.0);
    }
    std::printf("bus utilization     read %.3f write %.3f\n",
                r.readBusUtil, r.writeBusUtil);
    std::printf("wall clock          setup %.2fs%s + measured %.2fs\n",
                r.setupSeconds,
                r.restoredFromCheckpoint ? " (checkpoint restore)" : "",
                r.measureSeconds);

    if (cfg.osMc.faults.enabled()) {
        const auto stat = [&](const char *name) {
            return static_cast<unsigned long>(r.stats.get(name));
        };
        std::printf("corruption          detected %lu (recovered %lu, "
                    "unrecoverable %lu)\n",
                    stat("mc.ml2.corruption_detected"),
                    stat("mc.ml2.corruption_recovered"),
                    stat("mc.ml2.corruption_unrecoverable"));
        std::printf("                    cte mismatches %lu, ptb decode "
                    "rejects %lu\n",
                    stat("mc.cte_mismatch"),
                    stat("mc.ptb_decode_rejects"));
    }

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

    if (!r.tenants.empty()) {
        std::printf("tenants             %zu guest address spaces "
                    "(churn %.4g, zipf %.3g)\n",
                    r.tenants.size(), cfg.tenantChurn, cfg.tenantZipf);
        std::printf("  %-8s %12s %12s %10s %12s %12s\n", "tenant",
                    "accesses", "ml2_faults", "mb", "fault_p50", "fault_p99");
        for (std::size_t t = 0; t < r.tenants.size(); ++t) {
            const TenantStat &ts = r.tenants[t];
            std::printf(
                "  %-8zu %12llu %12llu %10.1f %10.1fns %10.1fns\n", t,
                static_cast<unsigned long long>(ts.accesses),
                static_cast<unsigned long long>(ts.ml2Faults),
                static_cast<double>(ts.footprintBytes) / (1 << 20),
                ts.ml2FaultLatency.percentile(0.50),
                ts.ml2FaultLatency.percentile(0.99));
        }
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
        writeEpochStats(stats_out, {cfg.workload}, {&r});
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
