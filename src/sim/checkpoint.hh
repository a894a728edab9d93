/**
 * @file
 * Setup-phase checkpoints: capture everything System builds before the
 * architecture-dependent warm-up — workload region layout + content-mix
 * assignment, guest/host page tables, the touch-count placement
 * ordering from the fast-forward stand-in, and the workload RNG stream
 * states at the phase boundary — so a sweep grid builds each distinct
 * setup once and every other config restores from it bit-identically.
 *
 * This mirrors the paper artifact's gem5+Ramulator methodology: one KVM
 * fast-forward checkpoint per workload, restored by every architecture
 * configuration (see docs/EXPERIMENTS.md).
 *
 * Checkpoints are keyed by the `Setup` fields of SimConfig's field
 * table (forEachField in sim_config.hh).  The arch-DEPENDENT part of
 * setup — seeding the OS-inspired/Compresso metadata layers from the
 * touch ordering — is replayed per restore from the recorded frame
 * sequences, so restored MC state matches a cold build exactly.
 *
 * CheckpointStore memoizes checkpoints process-wide (the ProfileLibrary
 * measurement-cache pattern) and optionally persists them to
 * TMCC_CKPT_DIR / --ckpt-dir as versioned, CRC-checked binary files;
 * corrupt or mismatched files are rejected via Status and the build
 * falls back to a cold run.
 */

#ifndef TMCC_SIM_CHECKPOINT_HH
#define TMCC_SIM_CHECKPOINT_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "common/status.hh"
#include "sim/sim_config.hh"
#include "vm/page_table.hh"
#include "vm/phys_mem.hh"
#include "workloads/profile_library.hh"

namespace tmcc
{

/** The architecture-invariant setup state of one System. */
struct SetupCheckpoint
{
    /** On-disk format version; bump on any payload layout change.
     * v2: keyFor() gained the multi-tenant knobs, so v1 keys (which
     * collapse all tenant configurations) can no longer be trusted. */
    static constexpr std::uint32_t formatVersion = 2;

    /** Invariant-config key this checkpoint was built for. */
    std::string key;

    std::uint64_t footprintBytes = 0;
    bool nested = false;

    PhysMemState physMem;      //!< host space (the only space, flat)
    PhysMemState guestPhysMem; //!< guest space (meaningful iff nested)
    PageTableState pageTable;  //!< workload/guest table
    PageTableState hostTable;  //!< meaningful iff nested

    ProfileLibraryState profiles;

    // The constructor's Compresso-usage estimate (drives the OS-MC
    // iso-savings budget); page-order-independent sums, captured so a
    // restore skips the full-footprint walk.
    std::uint64_t compressoUsage = 0;
    std::uint64_t ml2CostTotal = 0;
    std::uint64_t incompressiblePages = 0;
    std::uint64_t compressiblePages = 0;

    /**
     * Resolved host data frames in placement order: the touch-count
     * ordering (hottest first), then the full region scan (coldest
     * last).  Duplicates are preserved — placePage()/registerPage()
     * dedupe exactly as the cold path does.  PT pages are not recorded;
     * they replay from PhysMem's allocation-ordered PT page list.
     */
    std::vector<Ppn> touchedFrames;
    std::vector<Ppn> regionFrames;

    /** Per-core Workload::saveState blobs at the phase boundary. */
    std::vector<std::vector<std::uint8_t>> workloadStates;

    /**
     * The exact wire bytes of `cfg`'s `Setup` fields.  Configs
     * differing only in `Run` fields (arch, MC knobs, phase lengths
     * beyond placement) share a key.
     */
    static std::string keyFor(const SimConfig &cfg);

    void serialize(ByteWriter &w) const;
    Status deserialize(ByteReader &r);

    /** Atomic (write-temp-then-rename), CRC-checked file round trip. */
    Status saveFile(const std::string &path) const;
    static StatusOr<std::shared_ptr<const SetupCheckpoint>>
    loadFile(const std::string &path);

    /** File name (within a checkpoint dir) for a key. */
    static std::string fileNameFor(const std::string &key);
};

/**
 * Process-wide checkpoint memoization + optional disk layer.
 *
 * acquire() returns either a ready checkpoint (memory or disk hit) or a
 * build lease: the caller runs the cold setup, captures, and publishes.
 * Concurrent acquires of the same key block until the builder publishes
 * (or abandons, in which case the next waiter becomes the builder), so
 * a K-config grid builds each distinct setup exactly once.
 */
class CheckpointStore
{
  public:
    static CheckpointStore &global();

    /** Hit/miss counters since process start (or clear()). */
    struct Stats
    {
        std::uint64_t memoryHits = 0;
        std::uint64_t diskHits = 0;
        std::uint64_t misses = 0;
        std::uint64_t rejectedFiles = 0; //!< corrupt/mismatched files
    };
    Stats stats() const;

    /**
     * Fold checkpoint traffic observed in another process (a sweep
     * shard worker, reported through its ShardResultFile) into this
     * process's counters, so merged sweep BENCH reports carry
     * sweep-wide checkpoint hit counts.
     */
    void recordExternal(const Stats &s);

    /** Drop every entry and reset counters (tests). */
    void clear();

    /** Override the disk directory (CLI flag beats TMCC_CKPT_DIR). */
    void setDiskDir(std::string dir);
    const std::string &diskDir() const { return diskDir_; }

    /** TMCC_CKPT=0 disables the store entirely (cold A/B runs). */
    bool enabled() const { return enabled_; }

    class Lease
    {
      public:
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;
        Lease(Lease &&o) noexcept;
        ~Lease();

        /** Non-null on a memory/disk hit. */
        const std::shared_ptr<const SetupCheckpoint> &
        checkpoint() const
        {
            return ckpt_;
        }

        /** True when the caller must build + publish the checkpoint. */
        bool shouldCapture() const { return building_; }

      private:
        friend class CheckpointStore;
        Lease(CheckpointStore *store, std::string key,
              std::shared_ptr<const SetupCheckpoint> ckpt, bool building)
            : store_(store), key_(std::move(key)),
              ckpt_(std::move(ckpt)), building_(building)
        {}

        CheckpointStore *store_ = nullptr;
        std::string key_;
        std::shared_ptr<const SetupCheckpoint> ckpt_;
        bool building_ = false;
    };

    /**
     * Look up (or claim the build of) the checkpoint for `cfg`.  When
     * the store is disabled the lease is empty and nothing is recorded.
     */
    Lease acquire(const SimConfig &cfg);

    /** Publish a freshly built checkpoint under a build lease. */
    void publish(Lease &lease,
                 std::shared_ptr<const SetupCheckpoint> ckpt);

  private:
    CheckpointStore();

    void abandon(const std::string &key);
    std::shared_ptr<const SetupCheckpoint>
    tryDisk(const std::string &key);

    struct Entry
    {
        std::shared_ptr<const SetupCheckpoint> ckpt;
        bool building = false;
    };

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<std::string, Entry> entries_;
    bool enabled_ = true;
    std::string diskDir_;

    std::atomic<std::uint64_t> memoryHits_{0};
    std::atomic<std::uint64_t> diskHits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> rejectedFiles_{0};
};

} // namespace tmcc

#endif // TMCC_SIM_CHECKPOINT_HH
