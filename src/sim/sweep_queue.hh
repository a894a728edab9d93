/**
 * @file
 * Lease-based sweep work queue (docs/SWEEP.md): the one sweep executor
 * behind both `--dispatch=queue` and `--dispatch=fork`.  N workers on
 * any machines sharing a filesystem serve one sweep, with crash
 * recovery and no coordinator.
 *
 * A *queue directory* holds one subdirectory per enqueued sweep, each
 * a sweep directory (manifest + shard specs + CRC'd shard result
 * files, sweep_manifest.hh) plus three queue file kinds:
 *
 *  - REQUEST.tmccq (QueueRequest): the enqueue marker workers scan
 *    for, written last so a request is only visible once its specs are
 *    complete.  It carries the sweep's retry policy: the attempt cap
 *    and the per-attempt deadline.
 *  - shard-NNN.claim (ShardClaim): the lease.  Workers claim a shard
 *    by atomically creating its claim file (versioned-file
 *    create-if-absent via link(2) — exactly one creator wins, even
 *    over NFS), renew it by rewriting it (heartbeat; the file's mtime
 *    is the lease clock), and release it after publishing the result.
 *    A released claim stays on disk so the attempt count survives it.
 *    A claim that is released, older than its recorded lease, or past
 *    its attempt deadline no longer protects the shard: the next
 *    worker may replace it at attempt + 1, until the attempt cap.
 *  - shard-NNN.progress (ShardProgress): per-shard progress the worker
 *    streams while it runs (configs done, accesses simulated, the
 *    latest epoch snapshot) for the enqueuing client to display.
 *
 * Safety: results are deterministic, so the worst consequence of the
 * unavoidable distributed races (a slow owner publishing after its
 * lease was reclaimed) is duplicate work — both workers publish
 * bit-identical deterministic results via atomic rename, and merged
 * metrics stay byte-identical to a serial run.  Clocks: staleness
 * compares the claim's mtime (stamped by the filesystem server) with
 * the observer's wall clock, and deadlines are stamped by the
 * claimant's wall clock, so leases and deadlines must comfortably
 * exceed cross-host clock skew; the default lease (15s) does.
 *
 * QueueClient is the enqueuing side: partition the grid, write the
 * artifacts, poll for results, merge.  With a worker binary configured
 * it also spawns the local worker processes that serve a private queue
 * (`--dispatch=fork`).  SweepDaemon (sweep_daemon.hh, `tmcc_simd`) is
 * the serving side.
 */

#ifndef TMCC_SIM_SWEEP_QUEUE_HH
#define TMCC_SIM_SWEEP_QUEUE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"
#include "sim/sim_config.hh"
#include "sim/sim_result.hh"
#include "sim/sweep_manifest.hh"

namespace tmcc
{

/** Internal command-line entry of a local sweep worker: a binary that
 * QueueClient spawns is exec'ed as `<binary> --sweep-worker QUEUE_DIR`
 * and must hand that to SweepDaemon::localWorkerMain. */
inline constexpr char sweepWorkerFlag[] = "--sweep-worker";

/** `shard-NNN.<ext>` within a sweep directory. */
std::string sweepShardFile(const std::string &dir, std::uint32_t id,
                           const char *ext);

/** REQUEST.tmccq within a sweep directory. */
std::string sweepRequestPath(const std::string &sweepDir);

/** Default lease holder identity of the worker process `pid` on this
 * host: "<hostname>:<pid>". */
std::string sweepWorkerId(long pid);

/**
 * Whether a "<shard>@<attempt|*>" failure-injection hook env var (see
 * sweep_daemon.hh) fires for this shard attempt.
 */
bool sweepTestHookFires(const char *envName, std::uint32_t shard,
                        std::uint32_t attempt);

/** Default shard/worker count when a sharded dispatch mode is chosen
 * without an explicit --shards/TMCC_SHARDS: hardware_concurrency
 * clamped to [1, 64] (0 when unknown maps to 1). */
unsigned defaultShardCount();

/** The enqueue marker (REQUEST.tmccq) workers scan for. */
struct QueueRequest
{
    // v2: the retry policy (attempt cap + per-attempt deadline).
    static constexpr std::uint32_t formatVersion = 2;

    std::string gridKey;
    std::uint64_t totalConfigs = 0;
    std::uint32_t shardCount = 0;
    std::uint32_t workerJobs = 1;  //!< advisory SimRunner threads
    std::uint32_t maxAttempts = 0; //!< claims per shard; 0 = no cap
    double attemptSeconds = 0.0;   //!< per-attempt deadline; 0 = none

    Status save(const std::string &path) const;
    static StatusOr<QueueRequest> load(const std::string &path);
};

/** The lease record (shard-NNN.claim). */
struct ShardClaim
{
    // v2: per-attempt deadline + the released state, so the attempt
    //     count survives a release.
    static constexpr std::uint32_t formatVersion = 2;

    std::string gridKey;
    std::uint32_t shardId = 0;
    std::uint32_t attempt = 1; //!< 1 + claims this shard had before
    std::string owner;         //!< worker id, e.g. "host:pid"
    std::uint64_t heartbeatSeq = 0; //!< bumped on every renewal
    double leaseSeconds = 15.0;     //!< staleness threshold
    double deadline = 0.0; //!< wall-clock end of this attempt; 0 = none
    bool released = false; //!< the owner finished with the shard

    Status saveExclusive(const std::string &path) const;
    Status saveRenew(const std::string &path) const;
    static StatusOr<ShardClaim> load(const std::string &path);
};

/** Worker progress (shard-NNN.progress), streamed for the client. */
struct ShardProgress
{
    static constexpr std::uint32_t formatVersion = 1;

    std::string gridKey;
    std::uint32_t shardId = 0;
    std::uint32_t attempt = 1;
    std::string owner;
    std::uint64_t configsDone = 0;
    std::uint64_t configsTotal = 0;
    std::uint64_t accessesDone = 0; //!< simulated accesses so far
    std::uint64_t epochsSeen = 0;   //!< epoch snapshots so far
    // Latest epoch snapshot of the most recently finished config.
    double lastMl2AccessRate = 0.0;
    double lastCteHitRate = 0.0;
    double lastDramUsedBytes = 0.0;

    Status save(const std::string &path) const;
    static StatusOr<ShardProgress> load(const std::string &path);
};

/** Seconds since the claim file's last write (its renewal heartbeat),
 * measured against the local wall clock; < 0 when it cannot be
 * stat'ed (e.g. already deleted). */
double shardClaimAgeSeconds(const std::string &path);

/** A CRC-clean result for this grid is published for the shard. */
bool shardResultValid(const std::string &dir, const std::string &gridKey,
                      std::uint32_t shardId);

/**
 * Attempts spent on a shard whose claim has reached `maxAttempts`
 * (0 = no cap) and no longer protects a running attempt, else 0.  A
 * shard with a nonzero count and no valid result is settled: failed.
 */
std::uint32_t exhaustedShardAttempts(const std::string &dir,
                                     std::uint32_t shardId,
                                     std::uint32_t maxAttempts);

/** Outcome of one claim attempt. */
struct ClaimAttempt
{
    bool claimed = false;
    bool reclaimed = false; //!< an earlier claim was displaced
    ShardClaim claim;       //!< valid iff claimed
    std::string reason;     //!< why not, when !claimed
};

/**
 * Try to acquire the lease on shard `shardId` of the sweep in `dir`:
 *  - no claim file        -> exclusive-create (attempt 1)
 *  - live claim           -> not claimed ("held by <owner>")
 *  - released, stale or past its deadline
 *                         -> not claimed at the attempt cap;
 *                            else delete it and race to re-create
 *                            (attempt = its attempt + 1)
 *  - corrupt claim        -> never trusted: replaced at attempt 1
 * Losing the create race (another worker linked first) is a normal
 * "not claimed" outcome, not an error.  `maxAttempts` 0 = no cap;
 * `attemptSeconds` > 0 stamps a deadline that far from now.
 */
ClaimAttempt tryClaimShard(const std::string &dir,
                           const std::string &gridKey,
                           std::uint32_t shardId,
                           const std::string &owner,
                           double leaseSeconds,
                           std::uint32_t maxAttempts = 0,
                           double attemptSeconds = 0.0);

/**
 * Renew the lease: verify the on-disk claim is still ours (it may have
 * been reclaimed if we stalled past the lease) and inside its
 * deadline, bump the heartbeat sequence and rewrite the file
 * (refreshing its mtime).  An error means the lease was lost — the
 * worker must abandon the shard.
 */
Status renewShardClaim(const std::string &dir, ShardClaim &claim);

/** Mark the lease released (only if still ours), keeping its attempt
 * count for the next claimant.  Best effort. */
void releaseShardClaim(const std::string &dir, const ShardClaim &claim);

/** Merged outcome of a sweep. */
struct SweepOutcome
{
    /** Results in original grid order; entries of failed shards are
     * default-constructed (check `resultValid`). */
    std::vector<SimResult> results;
    std::vector<bool> resultValid;

    /** Final manifest state of every shard. */
    std::vector<SweepManifest::Shard> shards;

    unsigned completedShards = 0;
    unsigned failedShards = 0;  //!< at the attempt cap, or timed out
    unsigned retries = 0;       //!< attempts beyond each shard's first
    unsigned resumedShards = 0; //!< satisfied from a previous run

    /** Every shard completed and every result merged. */
    bool ok() const { return failedShards == 0; }
};

/** Policy knobs for the enqueuing client. */
struct QueueOptions
{
    /** Queue directory shared with the workers (required). */
    std::string queueDir;

    /** Sweep subdirectory name; empty = "sweep-<gridkey8>". */
    std::string sweepName;

    /** Shard count for a fresh enqueue; 0 = defaultShardCount().  A
     * re-enqueued sweep keeps its recorded partition.  Also the number
     * of local workers when `workerPath` is set. */
    unsigned shards = 0;

    /** Advisory SimRunner threads per worker (workers may override). */
    unsigned workerJobs = 1;

    /** Claims per shard before it is settled as failed. */
    unsigned maxAttempts = 3;

    /** Per-attempt deadline; a claim past it is reclaimable even while
     * its worker heartbeats, and a local worker holding it is killed.
     * 0 = none. */
    double attemptSeconds = 0.0;

    /** Local worker binary.  When set, run() spawns up to `shards`
     * processes `<workerPath> --sweep-worker <queueDir>`, restarts
     * those that die while work remains, and kills the rest once the
     * sweep settles.  Empty = external workers (tmcc_simd). */
    std::string workerPath;

    /** Result-poll interval. */
    double pollSeconds = 0.5;

    /** Give up after this long without completion; 0 = wait forever.
     * Unfinished shards surface as failed in the outcome. */
    double timeoutSeconds = 0.0;

    bool verbose = true;

    /** fatal() on out-of-contract values (strict CLI validation). */
    void validate() const;
};

/**
 * The enqueuing side of the queue: write the sweep artifacts under the
 * queue directory, wait for workers to publish every shard, and merge
 * after validating grid key + config indices + CRC, so the merged
 * outcome is indistinguishable from a serial run.
 */
class QueueClient
{
  public:
    explicit QueueClient(QueueOptions opts); //!< validates opts

    /**
     * Write (or re-validate, when resuming) the sweep directory for
     * `grid` and return its path.  Shards without a valid result get a
     * fresh attempt budget.  Fatal on caller errors: empty grid,
     * unusable queue dir, a sweep dir recorded for a different grid.
     */
    std::string enqueue(const std::vector<SimConfig> &grid);

    /** enqueue() + poll until every shard is merged or settled as
     * failed (attempt cap), or the timeout expires. */
    SweepOutcome run(const std::vector<SimConfig> &grid);

    /** Process-wide queue-dispatch totals (BenchReport fields). */
    struct Totals
    {
        std::uint64_t sweeps = 0;          //!< enqueued
        std::uint64_t mergedShards = 0;    //!< results merged
        std::uint64_t reclaimedShards = 0; //!< merged with attempt > 1
        std::uint64_t resumedShards = 0;   //!< satisfied on enqueue
        std::uint64_t failedShards = 0;    //!< settled without a result
    };
    static Totals totals();
    static void resetTotals(); //!< tests

  private:
    QueueOptions opts_;
};

} // namespace tmcc

#endif // TMCC_SIM_SWEEP_QUEUE_HH
