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
 * Usage: tmcc_simd [options]
 *   --serve DIR       queue directory to serve (env: TMCC_QUEUE_DIR)
 *   --worker-id S     lease-holder identity (default: <hostname>:<pid>)
 *   --jobs N          SimRunner threads per shard (default: the
 *                     enqueuer's advisory value)
 *   --lease SEC       claim lease; a claim not renewed for SEC is
 *                     stale and reclaimable (default 15; must exceed
 *                     cross-host clock skew comfortably)
 *   --poll SEC        idle delay between queue scans (default 1)
 *   --once            exit once every visible sweep is fully served
 *                     (drain mode, for CI and scripts)
 *   --max-shards N    exit after serving N shards (tests)
 *   --quiet           suppress per-shard progress logging
 *
 * SIGINT/SIGTERM finish the current shard (its claim is released or
 * republished), then exit; SIGKILL mid-shard is recovered by any peer
 * through stale-lease reclaim.
 */

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

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

std::uint64_t
parsePositiveCount(const char *s, const char *what)
{
    char *end = nullptr;
    const long long v = std::strtoll(s, &end, 10);
    if (s[0] == '\0' || *end != '\0' || v <= 0) {
        std::fprintf(stderr,
                     "%s must be a positive integer, got \"%s\"\n",
                     what, s);
        std::exit(1);
    }
    return static_cast<std::uint64_t>(v);
}

double
parsePositiveSeconds(const char *s, const char *what)
{
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (s[0] == '\0' || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
        std::fprintf(stderr,
                     "%s must be a positive number of seconds, got "
                     "\"%s\"\n",
                     what, s);
        std::exit(1);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    DaemonOptions opts;
    if (const char *env = std::getenv("TMCC_QUEUE_DIR"); env && *env)
        opts.queueDir = env;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--serve") {
            opts.queueDir = value();
        } else if (arg.rfind("--serve=", 0) == 0) {
            opts.queueDir = arg.substr(std::strlen("--serve="));
        } else if (arg == "--worker-id") {
            opts.workerId = value();
        } else if (arg == "--jobs") {
            opts.jobs = static_cast<unsigned>(
                parsePositiveCount(value(), "--jobs"));
        } else if (arg == "--lease") {
            opts.leaseSeconds = parsePositiveSeconds(value(), "--lease");
        } else if (arg == "--poll") {
            opts.pollSeconds = parsePositiveSeconds(value(), "--poll");
        } else if (arg == "--once") {
            opts.once = true;
        } else if (arg == "--max-shards") {
            opts.maxShards = parsePositiveCount(value(), "--max-shards");
        } else if (arg == "--quiet") {
            opts.verbose = false;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("see the header of examples/tmcc_simd.cpp\n");
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s (try --help)\n",
                         arg.c_str());
            return 1;
        }
    }

    SweepDaemon daemon(opts); // fatal on out-of-contract options
    g_daemon = &daemon;
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);

    daemon.serve();
    return 0;
}
