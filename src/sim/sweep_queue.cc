#include "sim/sweep_queue.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "common/log.hh"
#include "common/versioned_file.hh"
#include "sim/runner.hh"

namespace tmcc
{

namespace
{

namespace fs = std::filesystem;

constexpr char requestMagic[8] = {'T', 'M', 'C', 'C', 'Q', 'R', 'E', 'Q'};
constexpr char claimMagic[8] = {'T', 'M', 'C', 'C', 'C', 'L', 'A', 'M'};
constexpr char progressMagic[8] = {'T', 'M', 'C', 'C', 'P', 'R', 'O', 'G'};

std::atomic<std::uint64_t> queueSweepsTotal{0};
std::atomic<std::uint64_t> queueMergedTotal{0};
std::atomic<std::uint64_t> queueReclaimedTotal{0};
std::atomic<std::uint64_t> queueResumedTotal{0};
std::atomic<std::uint64_t> queueFailedTotal{0};

double
wallSeconds()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

void
serializeClaim(ByteWriter &w, const ShardClaim &c)
{
    w.str(c.gridKey);
    w.u32(c.shardId);
    w.u32(c.attempt);
    w.str(c.owner);
    w.u64(c.heartbeatSeq);
    w.f64(c.leaseSeconds);
    w.f64(c.deadline);
    w.u8(c.released ? 1 : 0);
}

/** Whether `claim`, loaded from `path`, still protects a running
 * attempt: not released, renewed within its lease, inside its
 * deadline. */
bool
shardClaimLive(const ShardClaim &claim, const std::string &path)
{
    if (claim.released ||
        (claim.deadline > 0.0 && wallSeconds() > claim.deadline))
        return false;
    const double age = shardClaimAgeSeconds(path);
    return age >= 0.0 && age <= claim.leaseSeconds;
}

/** Describe how a waitpid status ended. */
std::string
exitDescription(int status)
{
    if (WIFEXITED(status))
        return "exited with status " + std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return std::string("killed by signal ") +
               std::to_string(WTERMSIG(status)) + " (" +
               strsignal(WTERMSIG(status)) + ")";
    return "ended with wait status " + std::to_string(status);
}

} // namespace

std::string
sweepShardFile(const std::string &dir, std::uint32_t id, const char *ext)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/shard-%03u.%s", id, ext);
    return dir + buf;
}

std::string
sweepRequestPath(const std::string &sweepDir)
{
    return sweepDir + "/REQUEST.tmccq";
}

std::string
sweepWorkerId(long pid)
{
    char host[256] = "unknown-host";
    if (::gethostname(host, sizeof(host) - 1) != 0)
        std::snprintf(host, sizeof(host), "unknown-host");
    host[sizeof(host) - 1] = '\0';
    return std::string(host) + ":" + std::to_string(pid);
}

bool
sweepTestHookFires(const char *envName, std::uint32_t shard,
                   std::uint32_t attempt)
{
    const char *v = std::getenv(envName);
    if (!v || !*v)
        return false;
    const char *at = std::strchr(v, '@');
    fatalIf(at == nullptr,
            std::string(envName) + " wants <shard>@<attempt|*>, got \"" +
                v + "\"");
    char *end = nullptr;
    const unsigned long s = std::strtoul(v, &end, 10);
    fatalIf(end != at, std::string(envName) + " has a bad shard id");
    if (s != shard)
        return false;
    if (std::strcmp(at + 1, "*") == 0)
        return true;
    const unsigned long a = std::strtoul(at + 1, &end, 10);
    fatalIf(*end != '\0' || end == at + 1,
            std::string(envName) + " has a bad attempt number");
    return a == attempt;
}

unsigned
defaultShardCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, 64u);
}

Status
QueueRequest::save(const std::string &path) const
{
    ByteWriter w;
    w.str(gridKey);
    w.u64(totalConfigs);
    w.u32(shardCount);
    w.u32(workerJobs);
    w.u32(maxAttempts);
    w.f64(attemptSeconds);
    return writeVersionedFile(path, requestMagic, formatVersion,
                              w.buffer());
}

StatusOr<QueueRequest>
QueueRequest::load(const std::string &path)
{
    TMCC_ASSIGN_OR_RETURN(
        const std::vector<std::uint8_t> payload,
        readVersionedFile(path, requestMagic, formatVersion));
    ByteReader r(payload);
    QueueRequest req;
    req.gridKey = r.str();
    req.totalConfigs = r.u64();
    req.shardCount = r.u32();
    req.workerJobs = r.u32();
    req.maxAttempts = r.u32();
    req.attemptSeconds = r.f64();
    TMCC_RETURN_IF_ERROR(r.finish("QueueRequest"));
    if (req.shardCount == 0)
        return Status::corruption("QueueRequest with zero shards");
    if (!std::isfinite(req.attemptSeconds) || req.attemptSeconds < 0.0)
        return Status::corruption("QueueRequest with a bad deadline");
    return req;
}

Status
ShardClaim::saveExclusive(const std::string &path) const
{
    ByteWriter w;
    serializeClaim(w, *this);
    return writeVersionedFileExclusive(path, claimMagic, formatVersion,
                                       w.buffer());
}

Status
ShardClaim::saveRenew(const std::string &path) const
{
    ByteWriter w;
    serializeClaim(w, *this);
    return writeVersionedFile(path, claimMagic, formatVersion,
                              w.buffer());
}

StatusOr<ShardClaim>
ShardClaim::load(const std::string &path)
{
    TMCC_ASSIGN_OR_RETURN(
        const std::vector<std::uint8_t> payload,
        readVersionedFile(path, claimMagic, formatVersion));
    ByteReader r(payload);
    ShardClaim c;
    c.gridKey = r.str();
    c.shardId = r.u32();
    c.attempt = r.u32();
    c.owner = r.str();
    c.heartbeatSeq = r.u64();
    c.leaseSeconds = r.f64();
    c.deadline = r.f64();
    const std::uint8_t released = r.u8();
    TMCC_RETURN_IF_ERROR(r.finish("ShardClaim"));
    c.released = released != 0;
    if (c.owner.empty() || c.attempt == 0 || released > 1 ||
        !std::isfinite(c.leaseSeconds) || c.leaseSeconds <= 0.0 ||
        !std::isfinite(c.deadline) || c.deadline < 0.0)
        return Status::corruption(path + ": implausible claim record");
    return c;
}

Status
ShardProgress::save(const std::string &path) const
{
    ByteWriter w;
    w.str(gridKey);
    w.u32(shardId);
    w.u32(attempt);
    w.str(owner);
    w.u64(configsDone);
    w.u64(configsTotal);
    w.u64(accessesDone);
    w.u64(epochsSeen);
    w.f64(lastMl2AccessRate);
    w.f64(lastCteHitRate);
    w.f64(lastDramUsedBytes);
    return writeVersionedFile(path, progressMagic, formatVersion,
                              w.buffer());
}

StatusOr<ShardProgress>
ShardProgress::load(const std::string &path)
{
    TMCC_ASSIGN_OR_RETURN(
        const std::vector<std::uint8_t> payload,
        readVersionedFile(path, progressMagic, formatVersion));
    ByteReader r(payload);
    ShardProgress p;
    p.gridKey = r.str();
    p.shardId = r.u32();
    p.attempt = r.u32();
    p.owner = r.str();
    p.configsDone = r.u64();
    p.configsTotal = r.u64();
    p.accessesDone = r.u64();
    p.epochsSeen = r.u64();
    p.lastMl2AccessRate = r.f64();
    p.lastCteHitRate = r.f64();
    p.lastDramUsedBytes = r.f64();
    TMCC_RETURN_IF_ERROR(r.finish("ShardProgress"));
    return p;
}

double
shardClaimAgeSeconds(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return -1.0;
    const double mtime = static_cast<double>(st.st_mtim.tv_sec) +
                         static_cast<double>(st.st_mtim.tv_nsec) * 1e-9;
    return wallSeconds() - mtime;
}

bool
shardResultValid(const std::string &dir, const std::string &gridKey,
                 std::uint32_t shardId)
{
    std::error_code ec;
    const std::string path = sweepShardFile(dir, shardId, "result");
    if (!fs::exists(path, ec))
        return false;
    auto loaded = ShardResultFile::load(path);
    return loaded.ok() && loaded.value().gridKey == gridKey;
}

std::uint32_t
exhaustedShardAttempts(const std::string &dir, std::uint32_t shardId,
                       std::uint32_t maxAttempts)
{
    if (maxAttempts == 0)
        return 0;
    const std::string path = sweepShardFile(dir, shardId, "claim");
    auto claim = ShardClaim::load(path);
    if (!claim.ok() || claim->attempt < maxAttempts ||
        shardClaimLive(*claim, path))
        return 0;
    return claim->attempt;
}

ClaimAttempt
tryClaimShard(const std::string &dir, const std::string &gridKey,
              std::uint32_t shardId, const std::string &owner,
              double leaseSeconds, std::uint32_t maxAttempts,
              double attemptSeconds)
{
    const std::string path = sweepShardFile(dir, shardId, "claim");
    ClaimAttempt out;
    out.claim.gridKey = gridKey;
    out.claim.shardId = shardId;
    out.claim.owner = owner;
    out.claim.heartbeatSeq = 0;
    out.claim.leaseSeconds = leaseSeconds;
    out.claim.attempt = 1;

    std::error_code ec;
    if (fs::exists(path, ec)) {
        auto existing = ShardClaim::load(path);
        if (existing.ok()) {
            const ShardClaim &prev = existing.value();
            if (shardClaimLive(prev, path)) {
                out.reason = "held by " + prev.owner + " (attempt " +
                             std::to_string(prev.attempt) + ")";
                return out;
            }
            // Released, stale (the owner died or stalled past its
            // lease) or past its deadline.  The next claimant inherits
            // the attempt count: the cap, failure hooks and reclaim
            // accounting key off it.
            if (maxAttempts != 0 && prev.attempt >= maxAttempts) {
                out.reason = "attempt cap reached after " +
                             std::to_string(prev.attempt) + " attempts";
                return out;
            }
            out.claim.attempt = prev.attempt + 1;
        }
        // Corrupt/truncated claims are never trusted: replace now.
        fs::remove(path, ec); // ENOENT = another reclaimer was faster
        out.reclaimed = true;
    }

    out.claim.deadline =
        attemptSeconds > 0.0 ? wallSeconds() + attemptSeconds : 0.0;
    const Status st = out.claim.saveExclusive(path);
    if (st.ok()) {
        out.claimed = true;
        return out;
    }
    // EEXIST = lost the create race to a concurrent claimant; any
    // other error (unwritable dir, ...) also reads as "not ours".
    out.reclaimed = false;
    out.reason = "lost claim race: " + st.toString();
    return out;
}

Status
renewShardClaim(const std::string &dir, ShardClaim &claim)
{
    const std::string path =
        sweepShardFile(dir, claim.shardId, "claim");
    auto current = ShardClaim::load(path);
    if (!current.ok())
        return Status::internal("lease lost (claim unreadable): " +
                                current.status().toString());
    const ShardClaim &cur = current.value();
    if (cur.owner != claim.owner || cur.attempt != claim.attempt ||
        cur.gridKey != claim.gridKey)
        return Status::internal("lease stolen by " + cur.owner +
                                " (attempt " +
                                std::to_string(cur.attempt) + ")");
    if (claim.deadline > 0.0 && wallSeconds() > claim.deadline)
        return Status::internal("lease lost: attempt " +
                                std::to_string(claim.attempt) +
                                " is past its deadline");
    ++claim.heartbeatSeq;
    return claim.saveRenew(path);
}

void
releaseShardClaim(const std::string &dir, const ShardClaim &claim)
{
    const std::string path =
        sweepShardFile(dir, claim.shardId, "claim");
    auto current = ShardClaim::load(path);
    if (!current.ok() || current.value().owner != claim.owner ||
        current.value().attempt != claim.attempt)
        return; // not ours any more; leave it alone
    ShardClaim done = current.value();
    done.released = true;
    (void)done.saveRenew(path);
}

void
QueueOptions::validate() const
{
    fatalIf(queueDir.empty(),
            "queue dispatch needs a queue directory (--queue-dir)");
    fatalIf(!std::isfinite(pollSeconds) || pollSeconds <= 0.0,
            "queue poll interval must be a positive number of seconds");
    fatalIf(!std::isfinite(timeoutSeconds) || timeoutSeconds < 0.0,
            "queue timeout must be >= 0 seconds (0 = wait forever)");
    fatalIf(workerJobs == 0,
            "queue worker jobs must be a positive integer");
    fatalIf(maxAttempts == 0,
            "shard attempt cap must be a positive integer");
    fatalIf(!std::isfinite(attemptSeconds) || attemptSeconds < 0.0,
            "shard timeout must be >= 0 seconds (0 = none)");
}

QueueClient::QueueClient(QueueOptions opts) : opts_(std::move(opts))
{
    opts_.validate();
}

QueueClient::Totals
QueueClient::totals()
{
    Totals t;
    t.sweeps = queueSweepsTotal.load();
    t.mergedShards = queueMergedTotal.load();
    t.reclaimedShards = queueReclaimedTotal.load();
    t.resumedShards = queueResumedTotal.load();
    t.failedShards = queueFailedTotal.load();
    return t;
}

void
QueueClient::resetTotals()
{
    queueSweepsTotal = 0;
    queueMergedTotal = 0;
    queueReclaimedTotal = 0;
    queueResumedTotal = 0;
    queueFailedTotal = 0;
}

std::string
QueueClient::enqueue(const std::vector<SimConfig> &grid)
{
    fatalIf(grid.empty(), "queue sweep needs a non-empty grid");

    const std::string key = sweepGridKey(grid);
    const std::string name = !opts_.sweepName.empty()
                                 ? opts_.sweepName
                                 : "sweep-" + key.substr(0, 8);
    const std::string dir = opts_.queueDir + "/" + name;
    std::error_code ec;
    fs::create_directories(dir, ec);
    fatalIf(!fs::is_directory(dir, ec),
            "cannot create sweep directory " + dir);

    // Load or create the manifest; the partition must be stable across
    // re-enqueues so workers and client agree on config indices.  A
    // manifest for a different grid means the directory belongs to
    // another sweep — refuse rather than silently mixing result sets.
    const std::string mpath = dir + "/MANIFEST.tmccsweep";
    SweepManifest manifest;
    bool have_manifest = false;
    if (fs::exists(mpath, ec)) {
        auto loaded = SweepManifest::load(mpath);
        if (loaded.ok()) {
            manifest = std::move(loaded).value();
            fatalIf(manifest.gridKey != key,
                    "sweep directory " + dir +
                        " holds a different sweep (manifest grid " +
                        manifest.gridKey + ", this grid " + key +
                        "); use a fresh --sweep-dir");
            fatalIf(manifest.totalConfigs != grid.size(),
                    "sweep manifest config count mismatch");
            have_manifest = true;
        } else {
            warn("sweep manifest rejected, re-partitioning: " +
                 loaded.status().toString());
        }
    }
    if (!have_manifest) {
        const unsigned want =
            opts_.shards ? opts_.shards : defaultShardCount();
        const unsigned n_shards = static_cast<unsigned>(
            std::min<std::size_t>(want, grid.size()));
        manifest.gridKey = key;
        manifest.totalConfigs = grid.size();
        manifest.shards.assign(n_shards, SweepManifest::Shard{});
        for (unsigned s = 0; s < n_shards; ++s)
            manifest.shards[s].id = s;
        // Round-robin partition: adjacent grid entries land on
        // different shards, balancing heterogeneous-cost grids.
        for (std::size_t i = 0; i < grid.size(); ++i)
            manifest.shards[i % n_shards].configIndices.push_back(i);
        fatalIf(!manifest.save(mpath).ok(),
                "cannot write sweep manifest " + mpath);
    }

    // Shard specs: the work orders the workers execute.  Written (or
    // refreshed) before the request marker so a visible request always
    // has complete specs.  Every shard still missing a valid result
    // gets a fresh attempt budget: drop claims that no longer protect
    // a running attempt (a live one keeps its worker).
    for (const SweepManifest::Shard &shard : manifest.shards) {
        ShardSpec spec;
        spec.gridKey = key;
        spec.shardId = shard.id;
        spec.workerJobs = opts_.workerJobs;
        spec.configIndices = shard.configIndices;
        for (std::uint64_t idx : shard.configIndices)
            spec.configs.push_back(grid[idx]);
        const std::string spath = sweepShardFile(dir, shard.id, "spec");
        fatalIf(!spec.save(spath).ok(),
                "cannot write shard spec " + spath);

        const std::string cpath = sweepShardFile(dir, shard.id, "claim");
        if (!fs::exists(cpath, ec) || shardResultValid(dir, key, shard.id))
            continue;
        auto claim = ShardClaim::load(cpath);
        if (!claim.ok() || !shardClaimLive(claim.value(), cpath))
            fs::remove(cpath, ec);
    }

    QueueRequest req;
    req.gridKey = key;
    req.totalConfigs = grid.size();
    req.shardCount = static_cast<std::uint32_t>(manifest.shards.size());
    req.workerJobs = opts_.workerJobs;
    req.maxAttempts = opts_.maxAttempts;
    req.attemptSeconds = opts_.attemptSeconds;
    fatalIf(!req.save(sweepRequestPath(dir)).ok(),
            "cannot write queue request in " + dir);
    queueSweepsTotal.fetch_add(1);
    return dir;
}

SweepOutcome
QueueClient::run(const std::vector<SimConfig> &grid)
{
    const std::string key = sweepGridKey(grid);
    const std::string dir = enqueue(grid);
    const std::string mpath = dir + "/MANIFEST.tmccsweep";
    auto manifest_or = SweepManifest::load(mpath);
    fatalIf(!manifest_or.ok(), "queue sweep manifest unreadable after "
                               "enqueue: " +
                                   manifest_or.status().toString());
    SweepManifest manifest = std::move(manifest_or).value();
    std::vector<SweepManifest::Shard> &shards = manifest.shards;

    SweepOutcome out;
    out.results.resize(grid.size());
    out.resultValid.assign(grid.size(), false);

    // A shard is settled once merged or failed at the attempt cap.
    std::vector<bool> settled(shards.size(), false);
    unsigned unsettled = static_cast<unsigned>(shards.size());
    // Last rejected publication per shard, so each one warns once.
    std::vector<fs::file_time_type> rejected(shards.size());

    const auto claim_path = [&](std::size_t s) {
        return sweepShardFile(dir, shards[s].id, "claim");
    };

    const auto try_merge = [&](std::size_t s, bool resume) -> bool {
        SweepManifest::Shard &shard = shards[s];
        const std::string rpath =
            sweepShardFile(dir, shard.id, "result");
        std::error_code ec;
        if (!fs::exists(rpath, ec))
            return false;
        auto loaded = ShardResultFile::load(rpath);
        if (!loaded.ok()) {
            // Torn/corrupt publications never merge; the shard's next
            // attempt re-runs it.  Every attempt publishes a fresh
            // file, so its timestamp names the publication.
            const auto stamp = fs::last_write_time(rpath, ec);
            if (!ec && stamp != rejected[s]) {
                rejected[s] = stamp;
                shard.lastError =
                    "result rejected: " + loaded.status().toString();
                warn("shard " + std::to_string(shard.id) + " " +
                     shard.lastError);
            }
            return false;
        }
        const ShardResultFile &file = loaded.value();
        if (file.gridKey != key ||
            file.configIndices != shard.configIndices)
            return false;
        for (std::size_t i = 0; i < file.configIndices.size(); ++i) {
            const std::uint64_t idx = file.configIndices[i];
            fatalIf(idx >= grid.size(),
                    "shard result index beyond the grid");
            out.results[idx] = file.results[i];
            out.resultValid[idx] = true;
            SimRunner::recordExternalRun(file.results[i]);
        }

        settled[s] = true;
        --unsettled;
        ++out.completedShards;
        out.retries += file.attempt - 1;
        queueMergedTotal.fetch_add(1);
        if (resume) {
            ++out.resumedShards;
            queueResumedTotal.fetch_add(1);
        }
        if (file.attempt > 1)
            queueReclaimedTotal.fetch_add(1);
        shard.state = ShardState::Done;
        shard.attempts = file.attempt;
        shard.lastError.clear();
        if (opts_.verbose)
            std::printf("[queue] shard %u merged (%zu configs, "
                        "attempt %u%s)\n",
                        shard.id, shard.configIndices.size(),
                        file.attempt, resume ? ", resumed" : "");
        return true;
    };

    const auto settle_failed = [&](std::size_t s,
                                   std::uint32_t attempts) {
        SweepManifest::Shard &shard = shards[s];
        settled[s] = true;
        --unsettled;
        ++out.failedShards;
        out.retries += attempts - 1;
        queueFailedTotal.fetch_add(1);
        shard.state = ShardState::Failed;
        shard.attempts = attempts;
        if (shard.lastError.empty())
            shard.lastError = "no valid result";
        warn("shard " + std::to_string(shard.id) +
             " failed permanently after " + std::to_string(attempts) +
             " attempts: " + shard.lastError);
    };

    // Local workers (--dispatch=fork): processes serving this private
    // queue, identified by the lease-holder id they claim under.
    struct Worker
    {
        pid_t pid;
        std::string id;
        std::string killedFor; //!< set when we killed it on a deadline
    };
    std::vector<Worker> workers;

    const auto spawn = [&] {
        const pid_t pid = ::fork();
        fatalIf(pid < 0, "fork() failed for a sweep worker");
        if (pid == 0) {
            ::execl(opts_.workerPath.c_str(), opts_.workerPath.c_str(),
                    sweepWorkerFlag, opts_.queueDir.c_str(),
                    static_cast<char *>(nullptr));
            std::fprintf(stderr, "exec %s failed: %s\n",
                         opts_.workerPath.c_str(),
                         std::strerror(errno));
            ::_exit(127);
        }
        workers.push_back({pid, sweepWorkerId(pid), ""});
        if (opts_.verbose)
            std::printf("[sweep] local worker pid %d started\n",
                        static_cast<int>(pid));
    };

    // A reaped worker holds no lease any more: release its claims so
    // the next attempt starts now rather than a lease later.
    const auto reaped = [&](const Worker &w, int status) {
        for (std::size_t s = 0; s < shards.size(); ++s) {
            if (settled[s])
                continue;
            auto claim = ShardClaim::load(claim_path(s));
            if (!claim.ok() || claim->owner != w.id || claim->released)
                continue;
            releaseShardClaim(dir, claim.value());
            shards[s].lastError =
                !w.killedFor.empty()
                    ? w.killedFor
                    : "worker " + w.id + " " + exitDescription(status);
        }
    };

    // The claim of a worker past its attempt deadline is void already;
    // kill the (wedged or too slow) worker so a fresh one can take the
    // next attempt.
    const auto enforce_deadlines = [&] {
        const double now = wallSeconds();
        for (std::size_t s = 0; s < shards.size(); ++s) {
            if (settled[s])
                continue;
            auto claim = ShardClaim::load(claim_path(s));
            if (!claim.ok() || claim->released ||
                claim->deadline <= 0.0 || now <= claim->deadline)
                continue;
            for (Worker &w : workers)
                if (w.id == claim->owner && w.killedFor.empty()) {
                    w.killedFor = "attempt " +
                                  std::to_string(claim->attempt) +
                                  " passed its deadline; worker " +
                                  w.id + " killed";
                    shards[s].lastError = w.killedFor;
                    ::kill(w.pid, SIGKILL);
                }
        }
    };

    // Reap exited workers; replace those that died while work remains.
    const auto reap_and_replace = [&] {
        for (std::size_t i = 0; i < workers.size();) {
            int status = 0;
            const pid_t r = ::waitpid(workers[i].pid, &status, WNOHANG);
            if (r == 0) {
                ++i;
                continue;
            }
            fatalIf(r < 0, "waitpid failed for a sweep worker");
            fatalIf(WIFEXITED(status) && WEXITSTATUS(status) == 127,
                    "cannot exec sweep worker " + opts_.workerPath);
            const Worker w = workers[i];
            workers.erase(workers.begin() +
                          static_cast<std::ptrdiff_t>(i));
            reaped(w, status);
            // A clean exit means the worker found nothing left to run.
            const bool drained = WIFEXITED(status) && WEXITSTATUS(status) == 0;
            if (drained || unsettled == 0)
                continue;
            if (opts_.verbose)
                std::printf("[sweep] local worker %s %s, replacing it\n",
                            w.id.c_str(), exitDescription(status).c_str());
            spawn();
        }
    };

    for (std::size_t s = 0; s < shards.size(); ++s)
        try_merge(s, /*resume=*/true);
    if (!manifest.save(mpath).ok())
        warn("cannot save sweep manifest " + mpath);

    if (!opts_.workerPath.empty()) {
        const unsigned want =
            opts_.shards ? opts_.shards : defaultShardCount();
        for (unsigned i = 0; i < std::min(want, unsettled); ++i)
            spawn();
    }

    const double deadline =
        opts_.timeoutSeconds > 0.0
            ? wallSeconds() + opts_.timeoutSeconds
            : 0.0;
    double next_progress = wallSeconds() + 5.0;
    if (opts_.verbose && unsettled > 0 && opts_.workerPath.empty())
        std::printf("[queue] waiting for %u/%zu shards in %s "
                    "(serve with: tmcc_simd --serve %s)\n",
                    unsettled, shards.size(), dir.c_str(),
                    opts_.queueDir.c_str());

    while (unsettled > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opts_.pollSeconds));
        enforce_deadlines();
        bool progressed = false;
        for (std::size_t s = 0; s < shards.size(); ++s) {
            if (settled[s])
                continue;
            // Read the cap before the result: a worker publishes before
            // it releases, so a shard found exhausted here whose result
            // still does not merge below really failed.
            const std::uint32_t spent =
                exhaustedShardAttempts(dir, shards[s].id,
                                       opts_.maxAttempts);
            if (try_merge(s, /*resume=*/false)) {
                progressed = true;
            } else if (spent != 0) {
                settle_failed(s, spent);
                progressed = true;
            }
        }
        if (progressed && !manifest.save(mpath).ok())
            warn("cannot save sweep manifest " + mpath);
        reap_and_replace();

        const double now = wallSeconds();
        if (opts_.verbose && now >= next_progress) {
            next_progress = now + 5.0;
            for (std::size_t s = 0; s < shards.size(); ++s) {
                if (settled[s])
                    continue;
                const std::uint32_t id = shards[s].id;
                auto prog = ShardProgress::load(
                    sweepShardFile(dir, id, "progress"));
                auto cl = ShardClaim::load(claim_path(s));
                if (prog.ok() && cl.ok())
                    std::printf("[queue] shard %u: %llu/%llu configs "
                                "by %s (attempt %u)\n",
                                id,
                                static_cast<unsigned long long>(
                                    prog.value().configsDone),
                                static_cast<unsigned long long>(
                                    prog.value().configsTotal),
                                cl.value().owner.c_str(),
                                cl.value().attempt);
                else if (cl.ok())
                    std::printf("[queue] shard %u: claimed by %s\n", id,
                                cl.value().owner.c_str());
                else
                    std::printf("[queue] shard %u: unclaimed\n", id);
            }
        }
        if (deadline > 0.0 && now > deadline)
            break;
    }

    // Settled (or timed out): no local worker has anything left to do.
    for (const Worker &w : workers) {
        ::kill(w.pid, SIGKILL);
        int status = 0;
        ::waitpid(w.pid, &status, 0);
        reaped(w, status);
    }

    if (unsettled == 0) {
        // Retire the request so daemons stop rescanning this sweep;
        // the results stay for resume.
        std::error_code ec;
        fs::remove(sweepRequestPath(dir), ec);
    } else {
        for (std::size_t s = 0; s < shards.size(); ++s) {
            if (settled[s])
                continue;
            shards[s].lastError = "queue timeout after " +
                                  std::to_string(opts_.timeoutSeconds) +
                                  "s";
            ++out.failedShards;
            queueFailedTotal.fetch_add(1);
            warn("shard " + std::to_string(shards[s].id) +
                 " not served before the queue timeout");
        }
    }
    if (!manifest.save(mpath).ok())
        warn("cannot save sweep manifest " + mpath);
    out.shards = shards;
    return out;
}

} // namespace tmcc
