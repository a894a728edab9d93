/**
 * @file
 * SweepDaemon: the serving side of the lease-based sweep work queue
 * (sweep_queue.hh, docs/SWEEP.md), wrapped by the `tmcc_simd` binary
 * and by the local worker processes of `--dispatch=fork`.
 *
 * One daemon process scans a queue directory for enqueued sweeps
 * (REQUEST.tmccq markers), claims pending shards through the lease
 * protocol, and runs them *in-process* through SimRunner, so binary
 * startup, the memoized profile library, and warm setup checkpoints
 * are paid once per daemon instead of once per shard.
 *
 * While a shard runs, a heartbeat thread renews its claim every
 * leaseSeconds/3; if renewal discovers the lease was lost (reclaimed
 * after the daemon stalled past its lease, or past the attempt
 * deadline), the shard is abandoned without publishing.  Configs run
 * one at a time, and after each the daemon streams a ShardProgress
 * file for the enqueuing client.
 *
 * Failure-injection hooks for tests/CI, each "<shard>@<attempt|*>"
 * matched against the claimed shard and attempt:
 *   TMCC_SHARD_TEST_KILL     raise(SIGKILL) mid-shard — after the
 *                            first config, before publishing
 *   TMCC_SHARD_TEST_HANG     hang mid-shard (for the attempt deadline)
 *   TMCC_SHARD_TEST_CORRUPT  publish a result file with a bad CRC
 */

#ifndef TMCC_SIM_SWEEP_DAEMON_HH
#define TMCC_SIM_SWEEP_DAEMON_HH

#include <atomic>
#include <cstdint>
#include <set>
#include <string>

#include "sim/sweep_queue.hh"

namespace tmcc
{

struct DaemonOptions
{
    /** Queue directory to serve (required). */
    std::string queueDir;

    /** Lease holder identity; empty = "<hostname>:<pid>". */
    std::string workerId;

    /** SimRunner threads per shard; 0 = honour the enqueuer's
     * advisory workerJobs from the request. */
    unsigned jobs = 0;

    /** Claim lease; a claim older than this is stale and reclaimable.
     * Must comfortably exceed heartbeat latency + clock skew. */
    double leaseSeconds = 15.0;

    /** Idle delay between queue scans. */
    double pollSeconds = 1.0;

    /** Drain mode: exit once every visible sweep is fully served
     * instead of idling for new requests. */
    bool once = false;

    /** Stop after serving this many shards (0 = unlimited; tests). */
    std::uint64_t maxShards = 0;

    /** Default the disk checkpoint dir to <sweep-dir>/ckpt while
     * serving a shard, unless one was configured explicitly. */
    bool defaultCkptDir = true;

    bool verbose = true;

    /** fatal() on out-of-contract values (strict CLI validation). */
    void validate() const;
};

class SweepDaemon
{
  public:
    explicit SweepDaemon(DaemonOptions opts); //!< validates opts

    /** Serving counters (exposed for tests and exit logging). */
    struct Stats
    {
        std::uint64_t scans = 0;         //!< queue scan passes
        std::uint64_t sweepsSeen = 0;    //!< distinct requests seen
        std::uint64_t shardsServed = 0;  //!< results published
        std::uint64_t configsRun = 0;
        std::uint64_t reclaims = 0;      //!< stale leases displaced
        std::uint64_t claimsLost = 0;    //!< races lost to peers
        std::uint64_t leasesLost = 0;    //!< own lease stolen mid-run
    };
    Stats stats() const;

    /**
     * Serve the queue until requestStop(), maxShards, or (with
     * opts.once) the queue drains.  Returns the number of shards
     * served.  Safe to call from a worker thread while another thread
     * calls requestStop() (in-process tests).
     */
    std::uint64_t serve();

    /**
     * Entry point of a local sweep worker (`<binary> --sweep-worker
     * DIR`, spawned by QueueClient): drain the private queue in DIR
     * with default options and return the process exit code.
     */
    static int localWorkerMain(const std::string &queueDir);

    /** Ask a running serve() to return after the current shard. */
    void requestStop() { stop_.store(true); }

    const DaemonOptions &options() const { return opts_; }

  private:
    /** One scan pass; returns true when any shard was served.  Sets
     * `idle` when nothing is left to claim anywhere (drain test). */
    bool scanOnce(bool &idle);

    bool serveShard(const std::string &sweepDir,
                    const QueueRequest &req, std::uint32_t shardId);

    DaemonOptions opts_;
    std::atomic<bool> stop_{false};
    std::set<std::string> sweepsSeenNames_; //!< only touched by serve()

    std::atomic<std::uint64_t> scans_{0};
    std::atomic<std::uint64_t> sweepsSeen_{0};
    std::atomic<std::uint64_t> shardsServed_{0};
    std::atomic<std::uint64_t> configsRun_{0};
    std::atomic<std::uint64_t> reclaims_{0};
    std::atomic<std::uint64_t> claimsLost_{0};
    std::atomic<std::uint64_t> leasesLost_{0};
};

} // namespace tmcc

#endif // TMCC_SIM_SWEEP_DAEMON_HH
