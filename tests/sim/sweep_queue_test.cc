/**
 * @file
 * Lease-based sweep work queue (sim/sweep_queue.hh, sim/sweep_daemon.hh),
 * the one executor behind --dispatch=queue and --dispatch=fork: the
 * claim/renew/release protocol must hand every shard to exactly one
 * live worker — across stale-lease reclaim after a worker SIGKILL,
 * attempt deadlines, the attempt cap, N-way claim races, heartbeat
 * renewal under a slow shard, and corrupt claim files — and a sweep
 * must merge bit-identically with a serial SimRunner run, including
 * after a worker SIGKILL, a hang, a corrupt result file and a resume.
 *
 * This binary is its own worker: main() dispatches `--sweep-worker DIR`
 * (the local workers fork dispatch spawns) and `--daemon-serve DIR
 * LEASE` (a drain-once victim daemon with a short lease) before gtest
 * initialization, so tests can fork+exec /proc/self/exe as workers and
 * SIGKILL them mid-shard through the TMCC_SHARD_TEST_* hooks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "sim/checkpoint.hh"
#include "sim/runner.hh"
#include "sim/sweep_daemon.hh"
#include "sim/sweep_manifest.hh"
#include "sim/sweep_queue.hh"

namespace tmcc
{
namespace
{

namespace fs = std::filesystem;

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

std::vector<SimConfig>
grid()
{
    return {
        tinyConfig(Arch::NoCompression, "pageRank"),
        tinyConfig(Arch::Tmcc, "pageRank"),
        tinyConfig(Arch::Compresso, "stream"),
        tinyConfig(Arch::Tmcc, "blackscholes", 0.1),
    };
}

/** Serial ground truth, computed once per test binary. */
const std::vector<SimResult> &
serialBaseline()
{
    static const std::vector<SimResult> results =
        SimRunner(1).run(grid());
    return results;
}

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.tlbMisses, b.tlbMisses);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.cteHits, b.cteHits);
    EXPECT_EQ(a.ml2Accesses, b.ml2Accesses);
    EXPECT_EQ(a.dramUsedBytes, b.dramUsedBytes);
    // Bit-identical, not approximately equal: the queue round trip
    // (serialize, publish, CRC, merge) must not perturb a single bit.
    EXPECT_EQ(a.avgL3MissLatencyNs, b.avgL3MissLatencyNs);
    EXPECT_EQ(a.readBusUtil, b.readBusUtil);
    EXPECT_EQ(a.writeBusUtil, b.writeBusUtil);
    EXPECT_EQ(a.stats.all(), b.stats.all());
    EXPECT_EQ(a.l3MissLatency.buckets(), b.l3MissLatency.buckets());
    EXPECT_EQ(a.l3MissLatency.sampleSum(), b.l3MissLatency.sampleSum());
    EXPECT_EQ(a.pageWalkLatency.buckets(), b.pageWalkLatency.buckets());
}

void
expectMergedMatchesSerial(const SweepOutcome &out)
{
    const auto &serial = serialBaseline();
    ASSERT_EQ(out.results.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        ASSERT_TRUE(out.resultValid[i]);
        expectIdentical(serial[i], out.results[i]);
    }
}

void
unsetTestHooks()
{
    ::unsetenv("TMCC_SHARD_TEST_KILL");
    ::unsetenv("TMCC_SHARD_TEST_HANG");
    ::unsetenv("TMCC_SHARD_TEST_CORRUPT");
}

class SweepQueueTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        unsetTestHooks();
        QueueClient::resetTotals();
        dir_ = fs::temp_directory_path() /
               ("tmcc_sweep_queue_test_" + std::to_string(::getpid()) +
                "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void
    TearDown() override
    {
        unsetTestHooks();
        fs::remove_all(dir_);
    }

    std::string
    queueDir() const
    {
        return (dir_ / "queue").string();
    }

    QueueOptions
    clientOptions() const
    {
        QueueOptions o;
        o.queueDir = queueDir();
        o.sweepName = "sweep-under-test";
        o.shards = 2;
        o.workerJobs = 1;
        o.pollSeconds = 0.05;
        o.timeoutSeconds = 120.0; // never hit; bounds a deadlock
        o.verbose = false;
        return o;
    }

    /** --dispatch=fork: a private queue served by `shards` local
     * workers, this binary re-exec'ed with --sweep-worker. */
    QueueOptions
    forkOptions(unsigned shards = 3) const
    {
        QueueOptions o;
        o.queueDir = (dir_ / "sweep-dir").string();
        o.sweepName = "sweep";
        o.shards = shards;
        o.workerJobs = 1;
        o.workerPath = "/proc/self/exe";
        o.pollSeconds = 0.05;
        o.timeoutSeconds = 120.0; // never hit; bounds a deadlock
        o.verbose = false;
        return o;
    }

    std::string
    forkSweepDir() const
    {
        return (dir_ / "sweep-dir" / "sweep").string();
    }

    DaemonOptions
    daemonOptions(double lease = 5.0) const
    {
        DaemonOptions o;
        o.queueDir = queueDir();
        o.workerId = "test-daemon";
        o.jobs = 1;
        o.leaseSeconds = lease;
        o.pollSeconds = 0.05;
        o.once = true;
        o.defaultCkptDir = false; // keep the global store's disk dir
        o.verbose = false;
        return o;
    }

    fs::path dir_;
};

// ---------------------------------------------------------------------
// Claim protocol.

TEST_F(SweepQueueTest, ClaimLifecycle)
{
    const std::string dir = dir_.string();
    ClaimAttempt first = tryClaimShard(dir, "grid-a", 0, "w1", 5.0);
    ASSERT_TRUE(first.claimed);
    EXPECT_FALSE(first.reclaimed);
    EXPECT_EQ(first.claim.attempt, 1u);
    EXPECT_EQ(first.claim.owner, "w1");

    // A live claim repels other workers, with a reason naming the
    // holder.
    ClaimAttempt second = tryClaimShard(dir, "grid-a", 0, "w2", 5.0);
    EXPECT_FALSE(second.claimed);
    EXPECT_NE(second.reason.find("held by w1"), std::string::npos);

    // Renewal bumps the heartbeat sequence and keeps ownership.
    ASSERT_TRUE(renewShardClaim(dir, first.claim).ok());
    EXPECT_EQ(first.claim.heartbeatSeq, 1u);
    auto onDisk = ShardClaim::load(sweepShardFile(dir, 0, "claim"));
    ASSERT_TRUE(onDisk.ok());
    EXPECT_EQ(onDisk->heartbeatSeq, 1u);
    EXPECT_EQ(onDisk->owner, "w1");

    // Release keeps the file, marked released, so the attempt count
    // survives it: the next claim is attempt 2 at once, no lease wait.
    releaseShardClaim(dir, first.claim);
    onDisk = ShardClaim::load(sweepShardFile(dir, 0, "claim"));
    ASSERT_TRUE(onDisk.ok());
    EXPECT_TRUE(onDisk->released);
    EXPECT_EQ(exhaustedShardAttempts(dir, 0, 2), 0u);
    ClaimAttempt third = tryClaimShard(dir, "grid-a", 0, "w2", 5.0, 2);
    ASSERT_TRUE(third.claimed);
    EXPECT_EQ(third.claim.attempt, 2u);

    // At the cap (2) a released claim settles the shard: nobody may
    // claim it again, and the spent attempts are reported.
    EXPECT_EQ(exhaustedShardAttempts(dir, 0, 2), 0u); // still live
    releaseShardClaim(dir, third.claim);
    ClaimAttempt fourth = tryClaimShard(dir, "grid-a", 0, "w1", 5.0, 2);
    EXPECT_FALSE(fourth.claimed);
    EXPECT_NE(fourth.reason.find("attempt cap"), std::string::npos);
    EXPECT_EQ(exhaustedShardAttempts(dir, 0, 2), 2u);
    EXPECT_EQ(exhaustedShardAttempts(dir, 0, 3), 0u);
}

TEST_F(SweepQueueTest, StaleLeaseIsReclaimedWithAttemptBump)
{
    const std::string dir = dir_.string();
    ClaimAttempt dead = tryClaimShard(dir, "grid-a", 3, "dead", 0.2);
    ASSERT_TRUE(dead.claimed);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));

    // 0.5s > the 0.2s lease: any worker may displace the claim, and
    // the new claim inherits the attempt count.
    ClaimAttempt taken = tryClaimShard(dir, "grid-a", 3, "w2", 5.0);
    ASSERT_TRUE(taken.claimed);
    EXPECT_TRUE(taken.reclaimed);
    EXPECT_EQ(taken.claim.attempt, 2u);
    EXPECT_EQ(taken.claim.owner, "w2");
}

TEST_F(SweepQueueTest, DeadlineVoidsAHeartbeatingClaim)
{
    // A claim inside its lease but past its attempt deadline no longer
    // protects the shard: its owner's renewal fails and a rival takes
    // the next attempt at once.
    const std::string dir = dir_.string();
    ClaimAttempt slow =
        tryClaimShard(dir, "grid-a", 0, "slow", 5.0, 0, 0.3);
    ASSERT_TRUE(slow.claimed);
    EXPECT_GT(slow.claim.deadline, 0.0);
    ASSERT_TRUE(renewShardClaim(dir, slow.claim).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(500));

    EXPECT_FALSE(renewShardClaim(dir, slow.claim).ok());
    ClaimAttempt rival = tryClaimShard(dir, "grid-a", 0, "rival", 5.0);
    ASSERT_TRUE(rival.claimed);
    EXPECT_TRUE(rival.reclaimed);
    EXPECT_EQ(rival.claim.attempt, 2u);
    EXPECT_EQ(rival.claim.deadline, 0.0);
}

TEST_F(SweepQueueTest, CorruptClaimFileIsNeverTrusted)
{
    const std::string dir = dir_.string();
    const std::string path = sweepShardFile(dir, 1, "claim");
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a claim file", f);
    std::fclose(f);

    // Corrupt claims are reclaimed immediately (no lease wait) and the
    // attempt count resets: a forged/torn attempt is never inherited.
    ClaimAttempt taken = tryClaimShard(dir, "grid-a", 1, "w1", 5.0);
    ASSERT_TRUE(taken.claimed);
    EXPECT_TRUE(taken.reclaimed);
    EXPECT_EQ(taken.claim.attempt, 1u);
}

TEST_F(SweepQueueTest, RenewDetectsTheftAfterLeaseExpiry)
{
    const std::string dir = dir_.string();
    ClaimAttempt slow = tryClaimShard(dir, "grid-a", 0, "slow", 0.2);
    ASSERT_TRUE(slow.claimed);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    ClaimAttempt thief = tryClaimShard(dir, "grid-a", 0, "fast", 5.0);
    ASSERT_TRUE(thief.claimed);

    // The stalled owner's renewal must fail (its lease was reclaimed),
    // and its release must leave the thief's claim untouched.
    EXPECT_FALSE(renewShardClaim(dir, slow.claim).ok());
    releaseShardClaim(dir, slow.claim);
    auto onDisk = ShardClaim::load(sweepShardFile(dir, 0, "claim"));
    ASSERT_TRUE(onDisk.ok());
    EXPECT_EQ(onDisk->owner, "fast");
}

TEST_F(SweepQueueTest, HeartbeatRenewalKeepsSlowShardClaimed)
{
    // A shard running much longer than its lease stays claimed as long
    // as the heartbeat renews: competitors must be repelled throughout
    // 3x the lease duration.
    const std::string dir = dir_.string();
    ClaimAttempt slow = tryClaimShard(dir, "grid-a", 0, "slow", 0.5);
    ASSERT_TRUE(slow.claimed);
    for (int i = 0; i < 12; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(125));
        ASSERT_TRUE(renewShardClaim(dir, slow.claim).ok());
        ClaimAttempt rival =
            tryClaimShard(dir, "grid-a", 0, "rival", 0.5);
        ASSERT_FALSE(rival.claimed) << "iteration " << i;
        EXPECT_NE(rival.reason.find("held by slow"),
                  std::string::npos);
    }
    EXPECT_EQ(slow.claim.heartbeatSeq, 12u);
    releaseShardClaim(dir, slow.claim);
}

TEST_F(SweepQueueTest, NWayClaimRaceHasExactlyOneWinner)
{
    // 8 processes race to exclusive-create the same claim file; the
    // link(2) protocol guarantees exactly one winner.
    const std::string dir = dir_.string();
    constexpr int racers = 8;
    std::vector<pid_t> pids;
    for (int i = 0; i < racers; ++i) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ClaimAttempt a = tryClaimShard(
                dir, "grid-a", 0, "racer-" + std::to_string(i), 5.0);
            ::_exit(a.claimed ? 10 : 20);
        }
        pids.push_back(pid);
    }
    int winners = 0, losers = 0;
    for (const pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        if (WEXITSTATUS(status) == 10)
            ++winners;
        else if (WEXITSTATUS(status) == 20)
            ++losers;
    }
    EXPECT_EQ(winners, 1);
    EXPECT_EQ(losers, racers - 1);
    EXPECT_TRUE(fs::exists(sweepShardFile(dir, 0, "claim")));
}

TEST_F(SweepQueueTest, ExclusiveSaveRefusesExistingFile)
{
    ShardClaim c;
    c.gridKey = "grid-a";
    c.owner = "w1";
    const std::string path = sweepShardFile(dir_.string(), 7, "claim");
    ASSERT_TRUE(c.saveExclusive(path).ok());
    EXPECT_FALSE(c.saveExclusive(path).ok());
}

TEST_F(SweepQueueTest, QueueRequestRejectsZeroShards)
{
    QueueRequest req;
    req.gridKey = "grid-a";
    req.shardCount = 0;
    const std::string path = sweepRequestPath(dir_.string());
    ASSERT_TRUE(req.save(path).ok());
    EXPECT_FALSE(QueueRequest::load(path).ok());
}

TEST_F(SweepQueueTest, TestHookMatchesShardAndAttempt)
{
    ::setenv("TMCC_SHARD_TEST_KILL", "1@2", 1);
    EXPECT_TRUE(sweepTestHookFires("TMCC_SHARD_TEST_KILL", 1, 2));
    EXPECT_FALSE(sweepTestHookFires("TMCC_SHARD_TEST_KILL", 1, 1));
    EXPECT_FALSE(sweepTestHookFires("TMCC_SHARD_TEST_KILL", 0, 2));
    ::setenv("TMCC_SHARD_TEST_KILL", "1@*", 1);
    EXPECT_TRUE(sweepTestHookFires("TMCC_SHARD_TEST_KILL", 1, 7));
    ::unsetenv("TMCC_SHARD_TEST_KILL");
    EXPECT_FALSE(sweepTestHookFires("TMCC_SHARD_TEST_KILL", 1, 1));
}

TEST_F(SweepQueueTest, DefaultShardCountIsClamped)
{
    const unsigned n = defaultShardCount();
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, 64u);
}

// ---------------------------------------------------------------------
// Daemon end to end.

TEST_F(SweepQueueTest, QueueSweepBitIdenticalToSerial)
{
    // Client enqueues on one thread; an in-process daemon drains the
    // queue; the merged outcome must be indistinguishable from serial.
    QueueClient client(clientOptions());
    SweepDaemon daemon(daemonOptions());
    std::thread server([&] {
        // Poll until the request appears, then drain it.
        while (daemon.serve() == 0 &&
               !fs::exists(sweepRequestPath(queueDir() +
                                            "/sweep-under-test")))
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    SweepOutcome out = client.run(grid());
    server.join();

    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.completedShards, 2u);
    EXPECT_EQ(out.failedShards, 0u);
    expectMergedMatchesSerial(out);
    EXPECT_GE(daemon.stats().shardsServed, 2u);
    EXPECT_EQ(daemon.stats().configsRun, 4u);

    // The client retired the request marker; results stay for resume.
    EXPECT_FALSE(fs::exists(
        sweepRequestPath(queueDir() + "/sweep-under-test")));

    // A re-run of the same grid resumes entirely from disk: no daemon
    // is needed and no shard re-runs.
    QueueClient again(clientOptions());
    SweepOutcome resumed = again.run(grid());
    EXPECT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.resumedShards, 2u);
    expectMergedMatchesSerial(resumed);
    EXPECT_EQ(QueueClient::totals().resumedShards, 2u);
}

TEST_F(SweepQueueTest, SigkilledDaemonIsReclaimedBySurvivor)
{
    // A victim daemon (this binary, re-exec'ed) claims shard 0 and is
    // SIGKILLed by the test hook after its first config — publishing
    // nothing, leaving a live-looking claim.  A survivor daemon must
    // wait out the lease, reclaim at attempt 2, and serve the shard;
    // the merged sweep stays bit-identical.
    QueueOptions qopts = clientOptions();
    qopts.shards = 1; // one shard holding all four configs
    QueueClient client(qopts);
    const std::string sweepDir = client.enqueue(grid());

    ::setenv("TMCC_SHARD_TEST_KILL", "0@1", 1);
    const pid_t victim = ::fork();
    ASSERT_GE(victim, 0);
    if (victim == 0) {
        ::execl("/proc/self/exe", "sweep_queue_test", "--daemon-serve",
                queueDir().c_str(), "0.5", (char *)nullptr);
        ::_exit(127); // exec failed
    }
    ::unsetenv("TMCC_SHARD_TEST_KILL");

    int status = 0;
    ASSERT_EQ(::waitpid(victim, &status, 0), victim);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    EXPECT_FALSE(fs::exists(sweepShardFile(sweepDir, 0, "result")));
    EXPECT_TRUE(fs::exists(sweepShardFile(sweepDir, 0, "claim")));

    // The survivor's first scans find the orphaned claim still inside
    // its 0.5s lease; it must keep polling, reclaim once stale, and
    // serve the shard at attempt 2.
    SweepDaemon survivor(daemonOptions(/*lease=*/0.5));
    EXPECT_EQ(survivor.serve(), 1u);
    EXPECT_EQ(survivor.stats().reclaims, 1u);

    SweepOutcome out = client.run(grid());
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.retries, 1u); // merged result carries attempt 2
    ASSERT_EQ(out.shards.size(), 1u);
    EXPECT_EQ(out.shards[0].attempts, 2u);
    expectMergedMatchesSerial(out);
    EXPECT_EQ(QueueClient::totals().reclaimedShards, 1u);
}

TEST_F(SweepQueueTest, DaemonDefaultsCkptDirIntoSweepDir)
{
    // Serving a shard defaults the disk checkpoint dir to
    // <sweep-dir>/ckpt (unless configured), so every daemon of a sweep
    // shares warm setups through the sweep directory itself.
    CheckpointStore &store = CheckpointStore::global();
    const std::string saved = store.diskDir();
    store.setDiskDir("");
    // Drop memoized setups so the daemon's runs miss and must persist
    // fresh checkpoints into the defaulted directory.
    store.clear();

    QueueOptions qopts = clientOptions();
    qopts.shards = 1;
    QueueClient client(qopts);
    const std::string sweepDir = client.enqueue(grid());

    DaemonOptions dopts = daemonOptions();
    dopts.defaultCkptDir = true;
    SweepDaemon daemon(dopts);
    EXPECT_EQ(daemon.serve(), 1u);
    if (store.enabled()) {
        EXPECT_EQ(store.diskDir(), sweepDir + "/ckpt");
        EXPECT_TRUE(fs::exists(sweepDir + "/ckpt"));
    }
    store.setDiskDir(saved);

    // The published result records the worker's checkpoint traffic
    // (v3 fields) for sweep-wide BENCH accounting.
    auto result = ShardResultFile::load(
        sweepShardFile(sweepDir, 0, "result"));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->attempt, 1u);
    EXPECT_GT(result->ckptMemoryHits + result->ckptDiskHits +
                  result->ckptMisses,
              0u);
}

TEST_F(SweepQueueTest, AlwaysCorruptShardStopsAtAttemptCap)
{
    // Every publication of shard 0 fails its CRC.  The attempt count
    // survives each release, so the shard settles as failed at the cap
    // (2) instead of waiting out the queue timeout, the other shard
    // still merges,
    // and each rejected publication warns once, not once per poll.
    ::setenv("TMCC_SHARD_TEST_CORRUPT", "0@*", 1);
    QueueOptions qopts = clientOptions();
    qopts.maxAttempts = 2;
    QueueClient client(qopts);
    SweepDaemon daemon(daemonOptions());
    std::thread server([&] {
        while (daemon.serve() == 0 &&
               !fs::exists(sweepRequestPath(queueDir() +
                                            "/sweep-under-test")))
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    ::testing::internal::CaptureStderr();
    SweepOutcome out = client.run(grid());
    server.join();
    const std::string err = ::testing::internal::GetCapturedStderr();

    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.failedShards, 1u);
    EXPECT_EQ(out.completedShards, 1u);
    ASSERT_EQ(out.shards.size(), 2u);
    EXPECT_EQ(out.shards[0].state, ShardState::Failed);
    EXPECT_EQ(out.shards[0].attempts, 2u);
    EXPECT_NE(out.shards[0].lastError.find("result rejected"),
              std::string::npos);
    EXPECT_EQ(out.shards[1].state, ShardState::Done);
    EXPECT_EQ(QueueClient::totals().failedShards, 1u);

    std::size_t warnings = 0;
    for (std::size_t at = err.find("shard 0 result rejected");
         at != std::string::npos;
         at = err.find("shard 0 result rejected", at + 1))
        ++warnings;
    EXPECT_GE(warnings, 1u);
    EXPECT_LE(warnings, 2u) << err;
}

// ---------------------------------------------------------------------
// Fork dispatch: a private queue served by local worker processes.

TEST_F(SweepQueueTest, ForkDispatchBitIdenticalToSerial)
{
    SweepOutcome out = QueueClient(forkOptions()).run(grid());
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.completedShards, 3u);
    EXPECT_EQ(out.failedShards, 0u);
    EXPECT_EQ(out.retries, 0u);
    expectMergedMatchesSerial(out);
}

TEST_F(SweepQueueTest, MoreShardsThanConfigsClampsPartition)
{
    const std::vector<SimConfig> two = {grid()[0], grid()[1]};
    SweepOutcome out = QueueClient(forkOptions(8)).run(two);
    EXPECT_TRUE(out.ok());
    // Partition clamps to one shard per config.
    EXPECT_EQ(out.shards.size(), 2u);
    ASSERT_TRUE(out.resultValid[0]);
    ASSERT_TRUE(out.resultValid[1]);
    expectIdentical(serialBaseline()[0], out.results[0]);
    expectIdentical(serialBaseline()[1], out.results[1]);
}

TEST_F(SweepQueueTest, WorkerSigkillMidShardIsRetriedBitIdentically)
{
    // Shard 1's first attempt dies by SIGKILL after finishing its
    // first config (mid-shard, nothing published); the client reaps
    // the worker, releases its claim and starts a replacement, and
    // attempt 2 runs clean.
    ::setenv("TMCC_SHARD_TEST_KILL", "1@1", 1);
    SweepOutcome out = QueueClient(forkOptions()).run(grid());
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.retries, 1u);
    EXPECT_EQ(out.failedShards, 0u);
    EXPECT_EQ(out.completedShards, 3u);
    ASSERT_EQ(out.shards.size(), 3u);
    EXPECT_EQ(out.shards[1].state, ShardState::Done);
    EXPECT_EQ(out.shards[1].attempts, 2u);
    expectMergedMatchesSerial(out);
}

TEST_F(SweepQueueTest, HungWorkerPastDeadlineIsReplaced)
{
    // One shard, one local worker, so no peer can reclaim.  Attempt 1
    // wedges after its config while its heartbeat keeps renewing; the
    // deadline voids the lease, the client kills the worker, and the
    // replacement's attempt 2 completes before the queue timeout.  The
    // deadline must comfortably exceed a clean one-config attempt,
    // which sanitizer builds slow down many times over.
    const auto start = std::chrono::steady_clock::now();
    serialBaseline();
    const double serialSeconds = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() -
                                     start)
                                     .count();
    ::setenv("TMCC_SHARD_TEST_HANG", "0@1", 1);
    QueueOptions o = forkOptions(1);
    o.attemptSeconds = std::max(2.0, 3.0 * serialSeconds);
    const std::vector<SimConfig> one = {grid()[0]};
    SweepOutcome out = QueueClient(o).run(one);
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.retries, 1u);
    ASSERT_EQ(out.shards.size(), 1u);
    EXPECT_EQ(out.shards[0].state, ShardState::Done);
    EXPECT_EQ(out.shards[0].attempts, 2u);
    ASSERT_TRUE(out.resultValid[0]);
    expectIdentical(serialBaseline()[0], out.results[0]);
}

TEST_F(SweepQueueTest, CorruptResultFileIsRejectedAndRetried)
{
    // Shard 0's first attempt publishes a result file whose payload
    // fails its CRC; it must never merge, and attempt 2 replaces it.
    ::setenv("TMCC_SHARD_TEST_CORRUPT", "0@1", 1);
    SweepOutcome out = QueueClient(forkOptions()).run(grid());
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.retries, 1u);
    ASSERT_EQ(out.shards.size(), 3u);
    EXPECT_EQ(out.shards[0].state, ShardState::Done);
    EXPECT_EQ(out.shards[0].attempts, 2u);
    expectMergedMatchesSerial(out);
}

TEST_F(SweepQueueTest, RetryExhaustionDegradesGracefully)
{
    // Shard 1 dies on every attempt: the sweep must finish everything
    // else, mark shard 1 Failed in the manifest with its attempt count
    // and last error, and report not-ok (the CLI exits nonzero).
    ::setenv("TMCC_SHARD_TEST_KILL", "1@*", 1);
    QueueOptions o = forkOptions();
    o.maxAttempts = 2;
    SweepOutcome out = QueueClient(o).run(grid());
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.failedShards, 1u);
    EXPECT_EQ(out.retries, 1u);
    EXPECT_EQ(out.completedShards, 2u);
    ASSERT_EQ(out.shards.size(), 3u);
    EXPECT_EQ(out.shards[1].state, ShardState::Failed);
    EXPECT_EQ(out.shards[1].attempts, 2u);
    EXPECT_NE(out.shards[1].lastError.find("signal 9"),
              std::string::npos)
        << out.shards[1].lastError;

    // Every config outside the failed shard merged bit-identically;
    // the failed shard's configs are flagged invalid.
    const auto &serial = serialBaseline();
    const auto &lost = out.shards[1].configIndices;
    for (std::size_t i = 0; i < out.results.size(); ++i) {
        const bool onFailedShard =
            std::find(lost.begin(), lost.end(), i) != lost.end();
        EXPECT_EQ(out.resultValid[i], !onFailedShard);
        if (out.resultValid[i])
            expectIdentical(serial[i], out.results[i]);
    }

    // The durable manifest agrees with the in-memory outcome.
    const auto manifest =
        SweepManifest::load(forkSweepDir() + "/MANIFEST.tmccsweep");
    ASSERT_TRUE(manifest.ok());
    EXPECT_EQ(manifest->shards[1].state, ShardState::Failed);
    EXPECT_EQ(manifest->shards[1].attempts, 2u);
}

TEST_F(SweepQueueTest, ResumeRerunsOnlyMissingShards)
{
    // First pass: shard 2 spends its only attempt and fails.
    ::setenv("TMCC_SHARD_TEST_KILL", "2@*", 1);
    QueueOptions o = forkOptions();
    o.maxAttempts = 1;
    SweepOutcome first = QueueClient(o).run(grid());
    EXPECT_FALSE(first.ok());
    EXPECT_EQ(first.completedShards, 2u);

    // Second pass in the same sweep dir, hook removed: the two done
    // shards resume from their result files (no re-run), only the
    // failed shard gets a fresh attempt budget.
    ::unsetenv("TMCC_SHARD_TEST_KILL");
    SweepOutcome second = QueueClient(forkOptions()).run(grid());
    EXPECT_TRUE(second.ok());
    EXPECT_EQ(second.resumedShards, 2u);
    EXPECT_EQ(second.completedShards, 3u);
    EXPECT_EQ(second.shards[2].attempts, 1u);
    expectMergedMatchesSerial(second);
}

TEST_F(SweepQueueTest, ResumeRejectsTamperedResultFile)
{
    // Complete a sweep, then damage one published result: resume must
    // re-run that shard rather than merge the damaged file.
    SweepOutcome first = QueueClient(forkOptions()).run(grid());
    ASSERT_TRUE(first.ok());

    const std::string victim = sweepShardFile(forkSweepDir(), 1, "result");
    FILE *f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -3, SEEK_END);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);

    SweepOutcome second = QueueClient(forkOptions()).run(grid());
    EXPECT_TRUE(second.ok());
    EXPECT_EQ(second.resumedShards, 2u); // shard 1 re-ran
    EXPECT_EQ(second.shards[1].attempts, 1u);
    expectMergedMatchesSerial(second);
}

// ---------------------------------------------------------------------
// Strict validation (fatal -> exit(1), death-testable).

using SweepQueueDeathTest = SweepQueueTest;

TEST_F(SweepQueueDeathTest, QueueOptionsValidation)
{
    QueueOptions o = clientOptions();
    o.queueDir.clear();
    EXPECT_DEATH(o.validate(), "queue directory");

    o = clientOptions();
    o.pollSeconds = 0.0;
    EXPECT_DEATH(o.validate(), "poll interval");

    o = clientOptions();
    o.timeoutSeconds = -1.0;
    EXPECT_DEATH(o.validate(), "timeout");

    o = clientOptions();
    o.workerJobs = 0;
    EXPECT_DEATH(o.validate(), "worker jobs");
}

TEST_F(SweepQueueDeathTest, DaemonOptionsValidation)
{
    DaemonOptions o = daemonOptions();
    o.queueDir.clear();
    EXPECT_DEATH(o.validate(), "queue directory");

    o = daemonOptions();
    o.leaseSeconds = 0.0;
    EXPECT_DEATH(o.validate(), "lease");

    o = daemonOptions();
    o.pollSeconds = -2.0;
    EXPECT_DEATH(o.validate(), "poll interval");
}

TEST_F(SweepQueueDeathTest, MalformedTestHookIsFatal)
{
    ::setenv("TMCC_SHARD_TEST_KILL", "nonsense", 1);
    EXPECT_DEATH(sweepTestHookFires("TMCC_SHARD_TEST_KILL", 0, 1),
                 "wants <shard>@<attempt");
}

TEST_F(SweepQueueDeathTest, SweepNameOwnedByOtherGridIsFatal)
{
    QueueClient client(clientOptions());
    client.enqueue(grid());
    std::vector<SimConfig> other = grid();
    other[0].seed ^= 0x5a5a;
    QueueClient second(clientOptions());
    EXPECT_DEATH(second.enqueue(other), "different sweep");
}

TEST_F(SweepQueueDeathTest, SweepDirOwnedByOtherGridIsFatal)
{
    // Fork dispatch refuses a --sweep-dir holding another grid before
    // it spawns a single worker.
    SweepOutcome first = QueueClient(forkOptions()).run(grid());
    ASSERT_TRUE(first.ok());

    std::vector<SimConfig> other = grid();
    other[0].seed ^= 0x5a5a;
    EXPECT_DEATH(QueueClient(forkOptions()).run(other), "different sweep");
}

} // namespace
} // namespace tmcc

int
main(int argc, char **argv)
{
    // Worker re-entry: tests fork+exec this binary as local workers and
    // victim daemons, which must not fall into gtest.
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], tmcc::sweepWorkerFlag) == 0)
            return tmcc::SweepDaemon::localWorkerMain(argv[i + 1]);
        if (std::strcmp(argv[i], "--daemon-serve") == 0) {
            tmcc::DaemonOptions o;
            o.queueDir = argv[i + 1];
            o.leaseSeconds =
                (i + 2 < argc) ? std::atof(argv[i + 2]) : 0.5;
            o.pollSeconds = 0.05;
            o.once = true;
            o.defaultCkptDir = false;
            o.verbose = false;
            o.workerId = "victim";
            tmcc::SweepDaemon(o).serve();
            return 0;
        }
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
