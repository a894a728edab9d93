#include "sim/sweep_daemon.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/log.hh"
#include "sim/checkpoint.hh"
#include "sim/runner.hh"
#include "sim/sweep_manifest.hh"

namespace tmcc
{

namespace
{

namespace fs = std::filesystem;

/** Sleep `seconds` in small slices, returning early when `stop` set. */
void
interruptibleSleep(double seconds, const std::atomic<bool> &stop)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    while (!stop.load() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

} // namespace

void
DaemonOptions::validate() const
{
    fatalIf(queueDir.empty(),
            "tmcc_simd needs a queue directory (--serve DIR)");
    fatalIf(!std::isfinite(leaseSeconds) || leaseSeconds <= 0.0,
            "daemon lease must be a positive number of seconds");
    fatalIf(!std::isfinite(pollSeconds) || pollSeconds <= 0.0,
            "daemon poll interval must be a positive number of seconds");
}

SweepDaemon::SweepDaemon(DaemonOptions opts) : opts_(std::move(opts))
{
    opts_.validate();
    if (opts_.workerId.empty())
        opts_.workerId = sweepWorkerId(::getpid());
}

SweepDaemon::Stats
SweepDaemon::stats() const
{
    Stats s;
    s.scans = scans_.load();
    s.sweepsSeen = sweepsSeen_.load();
    s.shardsServed = shardsServed_.load();
    s.configsRun = configsRun_.load();
    s.reclaims = reclaims_.load();
    s.claimsLost = claimsLost_.load();
    s.leasesLost = leasesLost_.load();
    return s;
}

std::uint64_t
SweepDaemon::serve()
{
    if (opts_.verbose)
        std::printf("[simd %s] serving %s (lease %.1fs, poll %.1fs%s)\n",
                    opts_.workerId.c_str(), opts_.queueDir.c_str(),
                    opts_.leaseSeconds, opts_.pollSeconds,
                    opts_.once ? ", drain-once" : "");
    while (!stop_.load()) {
        bool idle = true;
        const bool served = scanOnce(idle);
        if (opts_.maxShards != 0 &&
            shardsServed_.load() >= opts_.maxShards)
            break;
        if (opts_.once && idle)
            break;
        if (!served)
            interruptibleSleep(opts_.pollSeconds, stop_);
    }
    if (opts_.verbose) {
        const Stats s = stats();
        std::printf("[simd %s] exiting: %llu shards (%llu configs) "
                    "served, %llu reclaims, %llu claim races lost, "
                    "%llu leases lost\n",
                    opts_.workerId.c_str(),
                    static_cast<unsigned long long>(s.shardsServed),
                    static_cast<unsigned long long>(s.configsRun),
                    static_cast<unsigned long long>(s.reclaims),
                    static_cast<unsigned long long>(s.claimsLost),
                    static_cast<unsigned long long>(s.leasesLost));
    }
    return shardsServed_.load();
}

bool
SweepDaemon::scanOnce(bool &idle)
{
    scans_.fetch_add(1);
    idle = true;

    // Enqueued sweeps, in stable (name) order so a fleet of daemons
    // converges on the same sweep instead of spreading thin.
    std::vector<std::string> sweeps;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(
             opts_.queueDir, fs::directory_options::skip_permission_denied,
             ec)) {
        if (!entry.is_directory(ec))
            continue;
        const std::string dir = entry.path().string();
        if (fs::exists(sweepRequestPath(dir), ec))
            sweeps.push_back(dir);
    }
    std::sort(sweeps.begin(), sweeps.end());

    bool served = false;
    for (const std::string &dir : sweeps) {
        auto req_or = QueueRequest::load(sweepRequestPath(dir));
        if (!req_or.ok()) {
            warn("queue request rejected in " + dir + ": " +
                 req_or.status().toString());
            continue;
        }
        const QueueRequest &req = req_or.value();
        if (sweepsSeenNames_.insert(dir).second)
            sweepsSeen_.fetch_add(1);

        for (std::uint32_t shard = 0; shard < req.shardCount;
             ++shard) {
            if (stop_.load())
                return served;
            if (opts_.maxShards != 0 &&
                shardsServed_.load() >= opts_.maxShards)
                return served;
            if (shardResultValid(dir, req.gridKey, shard) ||
                exhaustedShardAttempts(dir, shard, req.maxAttempts) != 0)
                continue; // settled: merged or failed
            idle = false; // work exists, even if someone else holds it
            served |= serveShard(dir, req, shard);
        }
    }
    return served;
}

bool
SweepDaemon::serveShard(const std::string &sweepDir,
                        const QueueRequest &req, std::uint32_t shardId)
{
    ClaimAttempt ca =
        tryClaimShard(sweepDir, req.gridKey, shardId, opts_.workerId,
                      opts_.leaseSeconds, req.maxAttempts,
                      req.attemptSeconds);
    if (!ca.claimed) {
        if (ca.reason.rfind("lost claim race", 0) == 0)
            claimsLost_.fetch_add(1);
        return false;
    }
    if (ca.reclaimed) {
        reclaims_.fetch_add(1);
        if (opts_.verbose)
            std::printf("[simd %s] took over the claim on shard %u "
                        "of %s (attempt %u)\n",
                        opts_.workerId.c_str(), shardId,
                        sweepDir.c_str(), ca.claim.attempt);
    }
    ShardClaim claim = ca.claim;

    // Publication/release race: the previous owner may have published
    // between our result check and our claim.
    if (shardResultValid(sweepDir, req.gridKey, shardId)) {
        releaseShardClaim(sweepDir, claim);
        return false;
    }

    auto spec_or =
        ShardSpec::load(sweepShardFile(sweepDir, shardId, "spec"));
    if (!spec_or.ok() || spec_or.value().gridKey != req.gridKey) {
        warn("shard " + std::to_string(shardId) + " spec unusable in " +
             sweepDir + (spec_or.ok() ? " (grid key mismatch)"
                                      : ": " +
                                            spec_or.status().toString()));
        releaseShardClaim(sweepDir, claim);
        return false;
    }
    const ShardSpec &spec = spec_or.value();

    if (opts_.verbose)
        std::printf("[simd %s] shard %u of %s: %zu configs, attempt "
                    "%u\n",
                    opts_.workerId.c_str(), shardId, sweepDir.c_str(),
                    spec.configs.size(), claim.attempt);

    // Share warm setup checkpoints across every worker of this sweep
    // unless the operator configured a checkpoint dir explicitly.
    CheckpointStore &store = CheckpointStore::global();
    if (opts_.defaultCkptDir && store.enabled() &&
        store.diskDir().empty())
        store.setDiskDir(sweepDir + "/ckpt");
    const CheckpointStore::Stats ck_before = store.stats();

    // Heartbeat: renew the lease every lease/3 while the shard runs.
    // Renewal failure means the lease was reclaimed out from under us
    // (we stalled past it); the shard must then be abandoned without
    // publishing.  `claim` is owned by this thread until the join.
    std::atomic<bool> hb_stop{false};
    std::atomic<bool> lease_lost{false};
    std::thread heartbeat([&] {
        const double period = std::max(opts_.leaseSeconds / 3.0, 0.05);
        for (;;) {
            interruptibleSleep(period, hb_stop);
            if (hb_stop.load())
                return;
            const Status st = renewShardClaim(sweepDir, claim);
            if (!st.ok()) {
                warn("shard " + std::to_string(shardId) +
                     " heartbeat failed: " + st.toString());
                lease_lost.store(true);
                return;
            }
        }
    });

    const unsigned jobs =
        opts_.jobs ? opts_.jobs
                   : (spec.workerJobs ? spec.workerJobs : 1);
    SimRunner runner(jobs);

    ShardResultFile file;
    file.gridKey = spec.gridKey;
    file.shardId = spec.shardId;
    file.attempt = claim.attempt;
    file.configIndices = spec.configIndices;

    ShardProgress prog;
    prog.gridKey = spec.gridKey;
    prog.shardId = spec.shardId;
    prog.attempt = claim.attempt;
    prog.owner = opts_.workerId;
    prog.configsTotal = spec.configs.size();

    bool abandoned = false;
    for (std::size_t i = 0; i < spec.configs.size(); ++i) {
        if (lease_lost.load() || stop_.load()) {
            abandoned = true;
            break;
        }
        file.results.push_back(runner.run({spec.configs[i]}).front());
        configsRun_.fetch_add(1);

        if (i == 0 && sweepTestHookFires("TMCC_SHARD_TEST_KILL", shardId,
                                         claim.attempt)) {
            // Simulate a crashed/OOM-killed worker: die mid-shard
            // without publishing, leaving the claim behind.
            ::raise(SIGKILL);
        }
        if (i == 0 && sweepTestHookFires("TMCC_SHARD_TEST_HANG", shardId,
                                         claim.attempt)) {
            // Simulate a wedged worker: the heartbeat keeps renewing
            // until the attempt deadline voids the lease.
            for (;;)
                std::this_thread::sleep_for(std::chrono::seconds(3600));
        }

        const SimResult &last = file.results.back();
        prog.configsDone = i + 1;
        prog.accessesDone += last.accesses;
        prog.epochsSeen += last.epochs.size();
        if (!last.epochs.empty()) {
            const EpochStat &e = last.epochs.back();
            prog.lastMl2AccessRate = e.ml2AccessRate;
            prog.lastCteHitRate = e.cteHitRate;
            prog.lastDramUsedBytes = e.dramUsedBytes;
        }
        // Progress is advisory: a failed write never fails the shard.
        (void)prog.save(
            sweepShardFile(sweepDir, shardId, "progress"));
    }

    hb_stop.store(true);
    heartbeat.join();

    if (abandoned || lease_lost.load()) {
        leasesLost_.fetch_add(lease_lost.load() ? 1 : 0);
        if (opts_.verbose)
            std::printf("[simd %s] abandoning shard %u (%s)\n",
                        opts_.workerId.c_str(), shardId,
                        lease_lost.load() ? "lease lost" : "stopping");
        if (!lease_lost.load())
            releaseShardClaim(sweepDir, claim);
        return false;
    }

    const CheckpointStore::Stats ck_after = store.stats();
    file.ckptMemoryHits = ck_after.memoryHits - ck_before.memoryHits;
    file.ckptDiskHits = ck_after.diskHits - ck_before.diskHits;
    file.ckptMisses = ck_after.misses - ck_before.misses;
    file.ckptRejected =
        ck_after.rejectedFiles - ck_before.rejectedFiles;

    const std::string rpath = sweepShardFile(sweepDir, shardId, "result");
    Status st;
    if (sweepTestHookFires("TMCC_SHARD_TEST_CORRUPT", shardId,
                           claim.attempt)) {
        // Publish a file that keeps its size but fails its CRC: flip
        // its last payload byte before the rename, so no reader ever
        // sees it intact.
        const std::string staged = rpath + ".corrupt";
        st = file.save(staged);
        if (FILE *f = std::fopen(staged.c_str(), "r+b")) {
            std::fseek(f, -1, SEEK_END);
            const int c = std::fgetc(f);
            std::fseek(f, -1, SEEK_END);
            std::fputc(c ^ 0xff, f);
            std::fclose(f);
        }
        if (st.ok() && std::rename(staged.c_str(), rpath.c_str()) != 0)
            st = Status::internal("cannot rename " + staged);
    } else {
        st = file.save(rpath);
    }
    if (!st.ok()) {
        warn("shard " + std::to_string(shardId) +
             " result publication failed: " + st.toString());
        releaseShardClaim(sweepDir, claim);
        return false;
    }
    releaseShardClaim(sweepDir, claim);
    shardsServed_.fetch_add(1);
    if (opts_.verbose)
        std::printf("[simd %s] shard %u of %s published (%zu "
                    "configs)\n",
                    opts_.workerId.c_str(), shardId, sweepDir.c_str(),
                    spec.configs.size());
    return true;
}

int
SweepDaemon::localWorkerMain(const std::string &queueDir)
{
    // The spawning client reaps this process and releases any claim it
    // left behind, so the lease only matters if the client dies too.
    DaemonOptions o;
    o.queueDir = queueDir;
    o.pollSeconds = 0.2;
    o.once = true;
    o.verbose = false;
    SweepDaemon(o).serve();
    return 0;
}

} // namespace tmcc
