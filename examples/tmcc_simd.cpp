/**
 * @file
 * tmcc_simd: the long-running sweep worker daemon serving the
 * lease-based work queue (docs/SWEEP.md phase 2).
 *
 * Point any number of daemons — on any machines sharing the queue
 * directory's filesystem — at the same queue:
 *
 *   tmcc_simd --serve /shared/tmcc-queue
 *
 * and enqueue sweeps from anywhere with
 * `tmcc_sim --sweep ... --dispatch=queue --queue-dir /shared/tmcc-queue`.
 * Each daemon claims pending shards through the crash-safe lease
 * protocol (sim/sweep_queue.hh) and runs them in-process, so binary
 * startup and the memoized profile library are paid once per daemon
 * rather than once per shard.
 *
 * `tmcc_simd --help` lists every flag, generated from the flag table
 * in main().
 *
 * SIGINT/SIGTERM finish the current shard (its claim is released or
 * republished), then exit; SIGKILL mid-shard is recovered by any peer
 * through stale-lease reclaim.
 */

#include <csignal>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "sim/sweep_daemon.hh"

using namespace tmcc;

namespace
{

SweepDaemon *g_daemon = nullptr;

void
onStopSignal(int)
{
    if (g_daemon)
        g_daemon->requestStop(); // async-signal-safe: one atomic store
}

} // namespace

int
main(int argc, char **argv)
{
    DaemonOptions opts;
    const std::vector<cli::Flag> flags = {
        {"--serve", "DIR", "queue directory to serve",
         cli::bind(opts.queueDir), "TMCC_QUEUE_DIR"},
        {"--worker-id", "S",
         "lease-holder identity (default <hostname>:<pid>)",
         cli::bind(opts.workerId)},
        {"--jobs", "N",
         "SimRunner threads per shard (default: the enqueuer's advisory "
         "value)",
         cli::bind(opts.jobs, 1)},
        {"--lease", "SEC",
         "claim lease; a claim not renewed for SEC is stale and "
         "reclaimable (default 15; must exceed cross-host clock skew "
         "comfortably)",
         cli::bind(opts.leaseSeconds, cli::kPositive)},
        {"--poll", "SEC", "idle delay between queue scans (default 1)",
         cli::bind(opts.pollSeconds, cli::kPositive)},
        {"--once", "",
         "exit once every visible sweep is fully served (drain mode, for "
         "CI and scripts)",
         cli::bind(opts.once)},
        {"--max-shards", "N", "exit after serving N shards (tests)",
         cli::bind(opts.maxShards, 1)},
        {"--quiet", "", "suppress per-shard progress logging",
         [&](auto &, auto &) {
             opts.verbose = false;
         }},
    };
    cli::parse("Usage: tmcc_simd [options]\n\nServe the sweep work queue "
               "in DIR until stopped (SIGINT/SIGTERM finish the\n"
               "current shard first).\n",
               flags, argc, argv);

    SweepDaemon daemon(opts); // fatal on out-of-contract options
    g_daemon = &daemon;
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);

    daemon.serve();
    return 0;
}
