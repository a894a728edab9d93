/**
 * @file
 * On-disk artifacts of a sharded sweep (see docs/SWEEP.md):
 *
 *  - ShardSpec: the work order the enqueuing client leaves for the
 *    workers — the full SimConfigs of one shard plus their indices in
 *    the original grid and the sweep's grid key.
 *  - ShardResultFile: what a worker publishes back — the SimResults of
 *    its configs, bit-exact (doubles travel as raw bit patterns), so a
 *    merged sweep is indistinguishable from a serial SimRunner run.
 *  - SweepManifest: the client's durable record of the sweep — the
 *    grid key, the shard partition, and each shard's state/attempts —
 *    rewritten atomically as shards settle so an interrupted sweep
 *    resumes by re-running only missing/failed shards.
 *
 * All three use the common versioned-file container (magic + format
 * version + CRC-32 + atomic temp-file+rename publication); corrupt or
 * truncated files are rejected with a Status and treated as "re-run",
 * never trusted and never fatal.
 */

#ifndef TMCC_SIM_SWEEP_MANIFEST_HH
#define TMCC_SIM_SWEEP_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "common/status.hh"
#include "sim/sim_config.hh"
#include "sim/sim_result.hh"

namespace tmcc
{

// Full-fidelity SimConfig/SimResult serialization.  Every field
// travels; doubles are encoded as their exact bit patterns so a
// round trip reproduces the value bit-identically.
void serializeSimConfig(ByteWriter &w, const SimConfig &cfg);
Status deserializeSimConfig(ByteReader &r, SimConfig &cfg);
void serializeSimResult(ByteWriter &w, const SimResult &res);
Status deserializeSimResult(ByteReader &r, SimResult &res);

/**
 * Deterministic fingerprint of a config grid (FNV-1a over the
 * serialized configs).  A sweep directory belongs to exactly one grid:
 * resume validates the stored key against the requested grid.
 */
std::string sweepGridKey(const std::vector<SimConfig> &grid);

/** One worker's work order (shard-NNN.spec). */
struct ShardSpec
{
    // v2: SimConfig gained the kernel mode + sampling geometry.
    // v3: SimConfig gained the multi-tenant knobs.
    // v4: dropped the attempt and result path (the claim holds the
    //     attempt; results go to shard-NNN.result).
    static constexpr std::uint32_t formatVersion = 4;

    std::string gridKey;
    std::uint32_t shardId = 0;
    std::uint32_t workerJobs = 1;
    std::vector<std::uint64_t> configIndices; //!< into the full grid
    std::vector<SimConfig> configs;

    Status save(const std::string &path) const;
    static StatusOr<ShardSpec> load(const std::string &path);
};

/** One worker's published results (shard-NNN.result). */
struct ShardResultFile
{
    // v2: SimResult gained the interval-sampling summary.
    // v3: attempt + the worker's checkpoint-store traffic while
    //     running the shard, so merged BENCH reports carry sweep-wide
    //     checkpoint hit counts and lease reclaims are observable.
    // v4: SimResult gained the per-tenant isolation stats.
    static constexpr std::uint32_t formatVersion = 4;

    std::string gridKey;
    std::uint32_t shardId = 0;
    std::uint32_t attempt = 1; //!< the attempt/claim that published
    std::vector<std::uint64_t> configIndices;
    std::vector<SimResult> results; //!< parallel to configIndices

    // CheckpointStore delta while this shard ran in the worker.
    std::uint64_t ckptMemoryHits = 0;
    std::uint64_t ckptDiskHits = 0;
    std::uint64_t ckptMisses = 0;
    std::uint64_t ckptRejected = 0;

    Status save(const std::string &path) const;
    static StatusOr<ShardResultFile> load(const std::string &path);
};

/** A shard's lifecycle state as recorded in the manifest. */
enum class ShardState : std::uint8_t
{
    Pending = 0, //!< not yet (successfully) run
    Done = 1,    //!< result file published and CRC-verified
    Failed = 2,  //!< exhausted its attempt budget
};

const char *shardStateName(ShardState s);

/** The client's durable sweep record (MANIFEST.tmccsweep). */
struct SweepManifest
{
    static constexpr std::uint32_t formatVersion = 1;

    struct Shard
    {
        std::uint32_t id = 0;
        ShardState state = ShardState::Pending;
        std::uint32_t attempts = 0; //!< attempts consumed so far
        std::string lastError;      //!< last failure description
        std::vector<std::uint64_t> configIndices;
    };

    std::string gridKey;
    std::uint64_t totalConfigs = 0;
    std::vector<Shard> shards;

    Status save(const std::string &path) const;
    static StatusOr<SweepManifest> load(const std::string &path);
};

} // namespace tmcc

#endif // TMCC_SIM_SWEEP_MANIFEST_HH
