/**
 * @file
 * The assembled simulated system (§VI): cores with TLBs and page
 * walkers, the cache hierarchy, one of the MC architectures, and the
 * DRAM back end, driven by workload engines.
 *
 * The run proceeds in the paper's phases: measure the content codecs,
 * map the address space (each region page once, recording its data
 * frame in a dense frame table), warm placement (touch-count ordering
 * stands in for the KVM fast-forward; pages are placed straight from
 * the frame table), then one measurement schedule: a lead-in warm-up
 * and k measured windows, each after a fast-forward and a detailed
 * warm-up.  An exact run is the schedule's one-window case; SMARTS-style
 * interval sampling is k > 1.  Every access runs through the one access
 * engine (sim/access_path.hh), drawn from one persistent 64-slot ring
 * of workload accesses per core.
 */

#ifndef TMCC_SIM_SYSTEM_HH
#define TMCC_SIM_SYSTEM_HH

#include <array>
#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "dram/dram_system.hh"
#include "mc/mem_controller.hh"
#include "sim/sim_config.hh"
#include "sim/sim_result.hh"
#include "vm/page_table.hh"
#include "vm/phys_mem.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"
#include "workloads/profile_library.hh"
#include "workloads/workload.hh"

namespace tmcc
{

template <bool Tracing, bool Functional> struct AccessEngine;
struct SystemTestPeer;

/** One simulated machine + workload. */
class System
{
  public:
    /** Build the memories, page tables, MC and cores for `cfg`. */
    explicit System(const SimConfig &cfg);

    /**
     * Phase 1: the fast-forward stand-in (touch-count placement); then
     * releases the frame table, which only setup reads.
     */
    void setup();

    /**
     * Phase 2 (runs setup if needed): the measurement schedule, a
     * lead-in warm-up then the measured windows; returns their results.
     */
    SimResult measure();

    // Component access for tests and benches.
    PageTable &pageTable() { return *pageTable_; }
    MemController &mc() { return *mc_; }
    const SimConfig &config() const { return cfg_; }
    std::uint64_t footprintBytes() const { return footprintBytes_; }

  private:
    struct CoreState
    {
        Tick now = 0;
        std::uint64_t accesses = 0;
        /** Store-buffer slots: completion times of in-flight stores. */
        std::vector<Tick> storeSlots = std::vector<Tick>(16, 0);
    };

    /** The per-core engines, their deduped regions and page index. */
    void buildWorkloads();
    /**
     * Measure every distinct region content spec in one codec pass
     * (ProfileLibrary::registerMixes) and record each region's mix.
     */
    void measureContent();
    /**
     * Size memories, build the page tables and the frame table (host
     * frames in nested mode), and attach each region page's profile.
     */
    void buildMemories();
    /**
     * The MC factory (the one place that switches on the arch) plus
     * the per-core TLBs and walkers.
     */
    void buildMcAndCores();
    /** Map every region page once, appending its frame to frames_. */
    void mapAddressSpace();

    /**
     * Initial ML1/ML2 placement: the touch-count run (hotPages), then,
     * for an MC with CTEs, placePages.  Records the `setup.touch` and
     * `setup.place` trace spans.
     */
    void warmPlacement();

    /**
     * Draw `placementAccesses` per core, each core's stream on a
     * parallelFor worker, and return the touched pages' region page
     * indices ordered by (touch count desc, VPN asc); empty when the
     * MC does not place by heat.  Counts go to per-worker dense arrays
     * over the region page index.
     */
    std::vector<std::uint64_t> hotPages();

    /**
     * Page-table pages, then the frames of `hot` (region page
     * indices), then every region page's frame, in order.
     */
    void placePages(const std::vector<std::uint64_t> &hot);

    /** Workload regions deduped and sorted by base address. */
    std::vector<const WlRegion *> regionMap() const;

    /** Claim this System's trace track when tracing is on. */
    void claimTraceTrack();

    // The per-access pipeline lives in AccessEngine
    // (sim/access_path.hh) and needs the private state.
    template <bool Tracing, bool Functional> friend struct AccessEngine;
    friend struct SystemTestPeer; // tests/sim/system_test_peer.hh

    /** Reject invalid --sample / --stats-interval combinations. */
    void validateRunConfig() const;

    /**
     * The next access of `core`'s workload stream, from its ring; an
     * empty ring refills with the next ringCap accesses of the stream.
     * Every phase draws through here, so accesses a phase leaves in the
     * ring are the next phase's first, and each stream is consumed in
     * order whatever the phase boundaries.
     */
    const MemAccess &
    nextAccess(unsigned core)
    {
        AccessRing &r = rings_[core];
        if (r.head == ringCap) {
            workloads_[core]->nextBatch(r.buf.data(), ringCap);
            r.head = 0;
        }
        return r.buf[r.head++];
    }

    /**
     * Feed `per_core` accesses of every core to `step(core, access)`,
     * round-robin.
     */
    template <class Step>
    void roundRobin(std::uint64_t per_core, Step &&step);

    /** Run `per_core` detailed warm-up accesses on every core. */
    void runWarm(std::uint64_t per_core);

    /**
     * The measured loop: interleave cores by local time until every
     * core has retired `quota` measured accesses, snapshotting epochs
     * when configured, and hint the host prefetcher at the TLB and L1
     * sets of the ring slots a few accesses ahead.
     */
    void runMeasuredLoop(std::uint64_t quota);
    template <bool Tracing, bool Epochs>
    void runMeasuredLoopT(std::uint64_t quota);

    /**
     * Functionally fast-forward `per_core` accesses per core: the
     * access engine's functional instantiation, so every translation
     * and cache state update matches runWarm's, without timing.
     */
    void fastForward(std::uint64_t per_core);

    /**
     * Dump every component's counters plus the measured-window
     * pipeline counters ("sys.*") and latency histograms.  Used for
     * the end-of-run StatDump and for each epoch snapshot.
     */
    void dumpAllStats(StatDump &dump) const;

    /** Record one epoch: per-key deltas vs. the previous snapshot. */
    void snapshotEpoch(Tick now);

    SimConfig cfg_;
    Tick cpuPeriod_;
    bool setupDone_ = false;
    double setupSeconds_ = 0.0; //!< constructor + setup() wall time
    std::uint64_t tracePid_ = 0;

    std::unique_ptr<PhysMem> physMem_;
    std::unique_ptr<PageTable> pageTable_;

    // Nested paging (§V-A3): the workload table above becomes the
    // guest table (built in guestPhysMem_); hostTable_ lives in
    // physMem_ and maps guest-physical frames to host frames.
    std::unique_ptr<PhysMem> guestPhysMem_;
    std::unique_ptr<PageTable> hostTable_;
    std::vector<std::unique_ptr<Walker>> hostWalkers_;
    std::unique_ptr<Hierarchy> hierarchy_;
    std::unique_ptr<DramSystem> dram_;
    ProfileLibrary profiles_;

    std::unique_ptr<MemController> mc_;

    std::vector<std::unique_ptr<Workload>> workloads_;
    std::vector<std::unique_ptr<Tlb>> tlbs_;
    std::vector<std::unique_ptr<Walker>> walkers_;
    std::vector<CoreState> cores_;

    static constexpr std::size_t ringCap = 64;
    /** One core's ring of fetched accesses; empty when head == ringCap. */
    struct AccessRing
    {
        std::array<MemAccess, ringCap> buf;
        std::size_t head = ringCap;
    };
    std::vector<AccessRing> rings_; //!< one per core, see nextAccess

    std::uint64_t footprintBytes_ = 0;
    std::vector<const WlRegion *> regions_; //!< regionMap(), sorted
    std::vector<unsigned> regionMix_;       //!< mix id per regions_ entry
    /**
     * Region page index: region k's pages take indices regionStart_[k]
     * .. regionStart_[k + 1] - 1, in VPN order; the last entry is the
     * page count.
     */
    std::vector<std::uint64_t> regionStart_;
    /**
     * The frame table: the data frame the MC sees (the host frame in
     * nested mode) per region page index.  Filled where frames are
     * allocated; released at the end of setup().
     */
    std::vector<Ppn> frames_;

    // Measured-window accumulators.
    SimResult result_;
    Tick measureStart_ = 0; //!< the first measured window's start

    // Epoch-snapshot state (active only when cfg_.statsInterval > 0).
    StatDump prevEpoch_;
    std::uint64_t prevEpochAccesses_ = 0;
    std::uint64_t nextEpochAt_ = 0;
};

} // namespace tmcc

#endif // TMCC_SIM_SYSTEM_HH
