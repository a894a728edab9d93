#include "sim/system.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <string>

#include <cmath>

#include "common/log.hh"
#include "common/parallel.hh"
#include "common/trace.hh"
#include "sim/access_path.hh"

namespace tmcc
{

SimConfig
SimConfig::scaledDefault()
{
    SimConfig cfg;
    cfg.scale = 0.25;           // graph footprints ~115MB
    cfg.tlbEntries = 1024;      // reach 4MB
    cfg.hierarchy.l3Bytes = 2 * 1024 * 1024;
    // CTE caches keep their Table III sizes; only footprints shrink,
    // so the reach hierarchy (TMCC 32MB = 4x Compresso 8MB ~ TLB 4MB)
    // is preserved at a gentler footprint/reach ratio.
    cfg.compresso.cteCacheBytes = 128 * 1024; // reach 8MB
    cfg.compresso.llcVictimBytes = 256 * 1024;
    cfg.osMc.cteCacheBytes = 32 * 1024;       // reach 16MB
    cfg.osMc.freeListLow = 1000;
    cfg.osMc.freeListCritical = 750;
    // The 1% Recency List sampling of §IV-B assumes ML1 >> hot set so
    // stale ordering is harmless; with reaches scaled down ~400x the
    // sampling rate scales up to keep the ordering quality comparable.
    cfg.osMc.recencySampleP = 0.10;
    cfg.placementAccesses = 300'000;
    cfg.warmAccesses = 200'000;
    cfg.measureAccesses = 300'000;
    return cfg;
}

const char *
archName(Arch arch)
{
    switch (arch) {
      case Arch::NoCompression: return "no-compression";
      case Arch::Compresso: return "compresso";
      case Arch::Barebone: return "os-inspired-barebone";
      case Arch::BarebonePlusMl1: return "barebone+ml1opt";
      case Arch::BarebonePlusMl2: return "barebone+ml2opt";
      case Arch::Tmcc: return "tmcc";
    }
    return "?";
}

Arch
archByName(const std::string &name)
{
    static const std::pair<const char *, Arch> names[] = {
        {"none", Arch::NoCompression},
        {"nocomp", Arch::NoCompression},
        {"compresso", Arch::Compresso},
        {"barebone", Arch::Barebone},
        {"barebone+ml1", Arch::BarebonePlusMl1},
        {"barebone+ml2", Arch::BarebonePlusMl2},
        {"tmcc", Arch::Tmcc},
    };
    for (const auto &[n, arch] : names)
        if (name == n)
            return arch;
    fatal("unknown arch '" + name + "'");
}

namespace
{

/**
 * Run one setup phase, and when tracing is on record it as a
 * wall-clock span on the host track (pid 0), in the row of the
 * System's own track `track`.
 */
template <class Fn>
void
tracedPhase(const char *name, std::uint32_t track, Fn &&fn)
{
    Tracer *tr = Tracer::active();
    if (tr == nullptr) {
        fn();
        return;
    }
    const double t0 = tr->wallNs();
    fn();
    Tracer::PidScope host_scope(0);
    tr->complete(name, "setup", setupTidBase + track, t0,
                 tr->wallNs() - t0);
}

} // namespace

System::System(const SimConfig &cfg) : cfg_(cfg)
{
    const auto wall0 = std::chrono::steady_clock::now();
    cpuPeriod_ = nsToTicks(1.0 / cfg.cpuGhz);

    claimTraceTrack();
    buildWorkloads();
    hierarchy_ = std::make_unique<Hierarchy>(cfg.hierarchy, cfg.cores);
    dram_ = std::make_unique<DramSystem>(cfg.dram, cfg.interleave);
    tracedPhase("setup.codecs", tracePid_, [this] { measureContent(); });
    tracedPhase("setup.map", tracePid_, [this] { buildMemories(); });
    buildMcAndCores();

    // setup() adds its own span: setupSeconds_ covers both.
    setupSeconds_ = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall0)
                        .count();
}

void
System::claimTraceTrack()
{
    Tracer *tracer = Tracer::active();
    if (tracer == nullptr || tracePid_ != 0)
        return;
    tracePid_ = tracer->allocTrack();
    tracer->processName(tracePid_, std::string(archName(cfg_.arch)) +
                                       ":" + cfg_.workload);
}

std::vector<const WlRegion *>
System::regionMap() const
{
    // Regions may be shared across cores; dedupe by base address,
    // keeping the first core's copy.  The sorted order is the frame
    // allocation order, so it must not depend on the host.
    std::vector<const WlRegion *> regions;
    for (const auto &wl : workloads_)
        for (const auto &r : wl->regions())
            regions.push_back(&r);
    std::stable_sort(regions.begin(), regions.end(),
                     [](const WlRegion *a, const WlRegion *b) {
                         return a->base < b->base;
                     });
    regions.erase(std::unique(regions.begin(), regions.end(),
                              [](const WlRegion *a, const WlRegion *b) {
                                  return a->base == b->base;
                              }),
                  regions.end());
    return regions;
}

void
System::buildMemories()
{
    // Physical memory: footprint + page tables + allocator slack.  With
    // hardware compression the OS may boot with more physical pages
    // than DRAM (§V-A5); the MC maps them onto DRAM.
    const std::uint64_t footprint_pages = regionStart_.back();
    footprintBytes_ = footprint_pages * pageSize;

    if (cfg_.nestedPaging) {
        // Guest table lives in its own guest-physical space; the host
        // table (and every host frame) lives in physMem_.
        guestPhysMem_ =
            std::make_unique<PhysMem>(footprint_pages * 5 / 4 + 8192);
        physMem_ =
            std::make_unique<PhysMem>(footprint_pages * 3 / 2 + 16384);
        pageTable_ = std::make_unique<PageTable>(*guestPhysMem_);
        hostTable_ = std::make_unique<PageTable>(*physMem_);
    } else {
        physMem_ =
            std::make_unique<PhysMem>(footprint_pages * 5 / 4 + 8192);
        pageTable_ = std::make_unique<PageTable>(*physMem_);
    }

    mapAddressSpace();

    if (cfg_.nestedPaging) {
        // Host-map every guest frame (guest PT pages included), then
        // move the frame table to the *host* frames, which are what
        // the MC architectures see.
        PteFlags hf;
        hf.accessed = true;
        hf.dirty = true;
        // Bound by the bump-allocator high-water mark, not the
        // allocation count: huge-page alignment leaves holes below it.
        std::vector<Ppn> host_frame(guestPhysMem_->highWaterFrame());
        for (Ppn gppn = 1; gppn < host_frame.size(); ++gppn) {
            host_frame[gppn] = physMem_->allocFrame();
            hostTable_->map(gppn, host_frame[gppn], hf);
        }
        for (Ppn &frame : frames_)
            frame = host_frame[frame];
    }

    for (std::size_t k = 0; k < regions_.size(); ++k)
        for (std::uint64_t i = regionStart_[k]; i < regionStart_[k + 1]; ++i)
            profiles_.assignPage(frames_[i], regionMix_[k]);
}

void
System::buildMcAndCores()
{
    // Build the selected MC architecture.
    switch (cfg_.arch) {
      case Arch::NoCompression:
        mc_ = std::make_unique<NoCompressionMc>(*dram_, footprintBytes_);
        break;
      case Arch::Compresso:
        mc_ = std::make_unique<CompressoMc>(*dram_, profiles_,
                                            cfg_.compresso);
        break;
      default: {
        OsMcConfig oc = cfg_.osMc;
        oc.embedCtes = cfg_.arch == Arch::Tmcc ||
                       cfg_.arch == Arch::BarebonePlusMl1;
        oc.fastDeflate = cfg_.arch == Arch::Tmcc ||
                         cfg_.arch == Arch::BarebonePlusMl2;
        oc.cores = cfg_.cores;
        oc.cteBufferEntries = cfg_.cteBufferEntries;
        // Estimate Compresso's DRAM usage and each page's ML2 cost (its
        // sub-chunk class size) from the region pages' profiles.
        std::uint64_t compresso_usage = 0, ml2_cost_total = 0;
        std::uint64_t incompressible = 0, compressible = 0;
        for (Ppn frame : frames_) {
            const PageProfile &prof = profiles_.profile(frame);
            compresso_usage +=
                std::max<std::uint64_t>(1, (prof.blockBytes + 511) / 512) *
                512;
            const unsigned cls = Ml2FreeLists::classFor(prof.deflateBytes);
            if (prof.deflateIncompressible() ||
                cls >= subChunkClasses.size()) {
                ++incompressible;
            } else {
                ml2_cost_total += subChunkClasses[cls].bytes;
                ++compressible;
            }
        }
        // Target total usage: either an explicit fraction of the
        // footprint (Table IV sweeps) or Compresso's usage (Fig. 17's
        // iso-savings comparison).
        const std::uint64_t target_usage =
            cfg_.dramBudgetFraction > 0.0
                ? static_cast<std::uint64_t>(cfg_.dramBudgetFraction *
                                             footprintBytes_)
                : compresso_usage;
        // Usage decomposes as (I + ml1)*4K + (Fc - ml1)*avgMl2Cost,
        // where I pages are incompressible (pinned to ML1) and Fc are
        // compressible; solve for the compressible ML1 share.
        const double avg_ml2 =
            compressible ? static_cast<double>(ml2_cost_total) /
                               static_cast<double>(compressible)
                         : static_cast<double>(pageSize);
        double ml1_pages =
            (static_cast<double>(target_usage) -
             static_cast<double>(incompressible) * pageSize -
             static_cast<double>(compressible) * avg_ml2) /
            (static_cast<double>(pageSize) - avg_ml2);
        ml1_pages =
            std::clamp(ml1_pages, 0.0, static_cast<double>(compressible));
        // The seeded frame pool must fund ML1 pages AND the chunks ML2
        // carves out of the ML1 free list, i.e. the whole target usage,
        // plus page tables and the free-list floor (kept free).
        oc.ml1TargetPages = static_cast<std::uint64_t>(ml1_pages) +
                            incompressible + physMem_->pageTablePages();
        oc.dramBudgetBytes = target_usage +
                             physMem_->pageTablePages() * pageSize +
                             (oc.freeListLow + 512) * pageSize;
        mc_ = std::make_unique<OsInspiredMc>(*dram_, profiles_,
                                             *physMem_, oc);
        break;
      }
    }

    cores_.assign(cfg_.cores, CoreState{});
    rings_.resize(cfg_.cores);
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        tlbs_.push_back(std::make_unique<Tlb>(cfg_.tlbEntries));
        walkers_.push_back(std::make_unique<Walker>(*pageTable_));
        if (cfg_.nestedPaging)
            hostWalkers_.push_back(
                std::make_unique<Walker>(*hostTable_));
    }
}

void
System::buildWorkloads()
{
    for (unsigned c = 0; c < cfg_.cores; ++c)
        workloads_.push_back(makeWorkload(cfg_.workload, c, cfg_.cores,
                                          cfg_.scale, cfg_.seed));
    regions_ = regionMap();
    regionStart_.assign(1, 0);
    for (const WlRegion *r : regions_)
        regionStart_.push_back(regionStart_.back() + r->bytes / pageSize);
}

void
System::measureContent()
{
    // One mix per distinct content spec, in region order, all measured
    // in one codec pass.
    std::vector<ContentMix> mixes;
    regionMix_.clear();
    for (const WlRegion *r : regions_) {
        std::size_t m = 0;
        while (m < mixes.size() && !(mixes[m].parts[0].spec == r->content))
            ++m;
        if (m == mixes.size())
            mixes.push_back({{{r->content, 1.0}}});
        regionMix_.push_back(static_cast<unsigned>(m));
    }
    const std::vector<unsigned> ids = profiles_.registerMixes(mixes);
    for (unsigned &mix_id : regionMix_)
        mix_id = ids[mix_id];
}

void
System::mapAddressSpace()
{
    // Nested mode maps guest frames here; buildMemories moves the frame
    // table to host frames once they exist.
    PhysMem &pm = cfg_.nestedPaging ? *guestPhysMem_ : *physMem_;
    frames_.reserve(regionStart_.back());
    Rng rng(cfg_.seed ^ 0xabcd);
    for (const WlRegion *r : regions_) {
        const std::uint64_t pages = r->bytes / pageSize;
        if (cfg_.hugePages) {
            constexpr std::uint64_t span = hugePageSize / pageSize;
            const std::uint64_t huge_pages =
                (r->bytes + hugePageSize - 1) / hugePageSize;
            for (std::uint64_t h = 0; h < huge_pages; ++h) {
                const Ppn ppn_base = pm.allocHugeFrame();
                PteFlags f;
                f.accessed = true;
                f.dirty = true;
                pageTable_->mapHuge(pageNumber(r->base) + h * span,
                                    ppn_base, f);
                // Frames past the region's last page back no region
                // page: they get no profile and no placement.
                for (std::uint64_t i = h * span;
                     i < std::min(pages, (h + 1) * span); ++i)
                    frames_.push_back(ppn_base + (i - h * span));
            }
            continue;
        }
        for (std::uint64_t i = 0; i < pages; ++i) {
            const Ppn ppn = pm.allocFrame();
            PteFlags f;
            f.accessed = true;
            // After the fast-forward phase nearly every data page has
            // been written; a tiny fraction of stragglers makes the
            // Fig. 6 status-bit uniformity realistic rather than exact.
            f.dirty = !rng.chance(0.0006);
            pageTable_->map(pageNumber(r->base) + i, ppn, f);
            frames_.push_back(ppn);
        }
    }
}

std::vector<std::uint64_t>
System::hotPages()
{
    std::vector<Vpn> first_vpn;
    for (const WlRegion *r : regions_)
        first_vpn.push_back(pageNumber(r->base));
    const std::vector<std::uint64_t> &start = regionStart_;
    const std::uint64_t pages = start.back();
    const bool by_heat = mc_->placesByHeat();

    // Each core's stream on a worker (engines are per-core and share
    // no mutable state); each worker counts into its own array, so
    // memory is bounded by the worker count, not the core count.
    // Accesses outside every region would fault in a detailed run;
    // they are not counted.
    constexpr std::size_t batch = 256;
    std::vector<std::vector<std::uint32_t>> counts(
        by_heat ? parallelWorkers(cfg_.cores) : 0);
    parallelFor(cfg_.cores, [&](std::size_t c, unsigned worker) {
        std::vector<std::uint32_t> *mine = nullptr;
        if (by_heat) {
            mine = &counts[worker];
            mine->resize(pages, 0);
        }
        std::array<MemAccess, batch> buf;
        for (std::uint64_t done = 0; done < cfg_.placementAccesses;) {
            const auto n = static_cast<std::size_t>(
                std::min<std::uint64_t>(batch,
                                        cfg_.placementAccesses - done));
            workloads_[c]->nextBatch(buf.data(), n);
            done += n;
            if (mine == nullptr)
                continue;
            for (std::size_t i = 0; i < n; ++i) {
                const Vpn vpn = pageNumber(buf[i].vaddr);
                const std::size_t k = static_cast<std::size_t>(
                    std::upper_bound(first_vpn.begin(), first_vpn.end(),
                                     vpn) -
                    first_vpn.begin());
                if (k > 0 && vpn - first_vpn[k - 1] < start[k] - start[k - 1])
                    ++(*mine)[start[k - 1] + (vpn - first_vpn[k - 1])];
            }
        }
    });
    if (!by_heat)
        return {};

    std::vector<std::uint32_t> total(pages, 0);
    for (const auto &mine : counts)
        for (std::size_t i = 0; i < mine.size(); ++i)
            total[i] += mine[i];

    // Hottest first; equal counts in ascending index order, which is
    // ascending VPN order over the sorted, disjoint regions, so the
    // order is total and independent of the host.
    std::vector<std::uint64_t> hot;
    for (std::uint64_t i = 0; i < pages; ++i)
        if (total[i] > 0)
            hot.push_back(i);
    std::sort(hot.begin(), hot.end(),
              [&](std::uint64_t a, std::uint64_t b) {
                  return total[a] != total[b] ? total[a] > total[b] : a < b;
              });
    return hot;
}

void
System::warmPlacement()
{
    // Touch-count run: the stand-in for gem5's KVM fast forward.  The
    // counts order pages hottest-first for initial ML1/ML2 placement;
    // only an MC that places by heat needs them, but every arch draws
    // the accesses so the measured streams start at the same point.
    std::vector<std::uint64_t> hot;
    tracedPhase("setup.touch", tracePid_, [&] { hot = hotPages(); });
    if (!mc_->hasCtes())
        return;
    tracedPhase("setup.place", tracePid_, [&] { placePages(hot); });
}

void
System::placePages(const std::vector<std::uint64_t> &hot)
{
    // Page-table pages are the hottest of all (every walk touches
    // them): place first.  Then the touched pages hottest-first, then
    // every region page in order: the untouched ones are the coldest.
    physMem_->forEachPtPage(
        [&](Ppn ppn, const PtPage &) { mc_->placePage(ppn); });
    for (std::uint64_t i : hot)
        mc_->placePage(frames_[i]);
    for (Ppn f : frames_)
        mc_->placePage(f);
}

// Every loop draws through nextAccess, whose per-core rings refill in
// blocks of 64 through Workload::nextBatch, so the loops touch the
// workload engine's virtual dispatch once per 64 accesses instead of
// once per access.  Fetching ahead only moves the *fetch* earlier
// within each core's own stream, which is invisible because workload
// engines are per-core.  Processing interleaves cores round-robin
// (warm-up and fast-forward: the access engine's timed and functional
// instantiations) or by local time (the measured loop).

namespace
{
/**
 * How many ring slots ahead of the consuming step the metadata
 * prefetches run.  Far enough for the loads to land before the probe,
 * near enough that the lines are still resident when it does.
 */
constexpr std::size_t lookahead = 8;

/**
 * Hint the host prefetcher at the set metadata an upcoming ring slot
 * will probe.  Only structures whose set index is computable from the
 * virtual address qualify: the TLB set directly, and the L1 set up to
 * the one physical index bit (bit 12 for the 128-set default) that
 * translation decides — so both page-parity candidates are hinted.
 * Prefetches touch no simulator state.
 */
inline void
prefetchAccess(Tlb &tlb, Cache &l1, const MemAccess &a)
{
    tlb.prefetchSet(a.vaddr);
    const Addr off = a.vaddr & (pageSize - 1);
    l1.prefetchSet(off);
    l1.prefetchSet(off | pageSize);
}
} // namespace

template <class Step>
void
System::roundRobin(std::uint64_t per_core, Step &&step)
{
    for (std::uint64_t i = 0; i < per_core; ++i)
        for (unsigned c = 0; c < cfg_.cores; ++c)
            step(c, nextAccess(c));
}

void
System::runWarm(std::uint64_t per_core)
{
    if (Tracer::active() != nullptr)
        roundRobin(per_core, [this](unsigned c, const MemAccess &a) {
            AccessEngine<true, false>::step(*this, c, a, false);
        });
    else
        roundRobin(per_core, [this](unsigned c, const MemAccess &a) {
            AccessEngine<false, false>::step(*this, c, a, false);
        });
}

template <bool Tracing, bool Epochs>
void
System::runMeasuredLoopT(std::uint64_t quota)
{
    // Interleave cores by local time.
    bool running = true;
    while (running) {
        unsigned next = 0;
        for (unsigned c = 1; c < cfg_.cores; ++c)
            if (cores_[c].now < cores_[next].now)
                next = c;
        const AccessRing &r = rings_[next];
        Tlb &tlb = *tlbs_[next];
        Cache &l1 = hierarchy_->l1(next);
        const bool refill = r.head == ringCap;
        const MemAccess &a = nextAccess(next);
        if (refill)
            for (std::size_t i = 0; i < lookahead; ++i)
                prefetchAccess(tlb, l1, r.buf[i]);
        if (r.head - 1 + lookahead < ringCap)
            prefetchAccess(tlb, l1, r.buf[r.head - 1 + lookahead]);
        AccessEngine<Tracing, false>::step(*this, next, a, true);
        if constexpr (Epochs) {
            if (result_.accesses >= nextEpochAt_) {
                snapshotEpoch(cores_[next].now);
                nextEpochAt_ += cfg_.statsInterval;
            }
        }
        running = false;
        for (unsigned c = 0; c < cfg_.cores; ++c)
            if (cores_[c].accesses < quota)
                running = true;
    }
}

void
System::runMeasuredLoop(std::uint64_t quota)
{
    const bool tracing = Tracer::active() != nullptr;
    const bool epochs = cfg_.statsInterval > 0;
    if (tracing) {
        if (epochs)
            runMeasuredLoopT<true, true>(quota);
        else
            runMeasuredLoopT<true, false>(quota);
    } else {
        if (epochs)
            runMeasuredLoopT<false, true>(quota);
        else
            runMeasuredLoopT<false, false>(quota);
    }
}

void
System::fastForward(std::uint64_t per_core)
{
    roundRobin(per_core, [this](unsigned c, const MemAccess &a) {
        AccessEngine<false, true>::step(*this, c, a, false);
    });
}

void
System::dumpAllStats(StatDump &dump) const
{
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        const std::string core = "core" + std::to_string(c);
        tlbs_[c]->dumpStats(dump, core + ".tlb");
        walkers_[c]->dumpStats(dump, core + ".walker");
        mc_->dumpCoreStats(dump, c, core);
    }
    hierarchy_->dumpStats(dump, "hier");
    dram_->dumpStats(dump, "dram");
    mc_->dumpStats(dump, "mc");

    // Measured-window pipeline counters, exported by name so epoch
    // deltas and bench harnesses can address them like any component
    // stat (via StatDump::getRequired).
    dump.set("sys.accesses", result_.accesses);
    dump.set("sys.store_accesses", result_.storeAccesses);
    dump.set("sys.tlb_hits", result_.tlbHits);
    dump.set("sys.tlb_misses", result_.tlbMisses);
    dump.set("sys.llc_misses", result_.llcMisses);
    dump.set("sys.llc_writebacks", result_.llcWritebacks);
    dump.set("sys.cte_hits", result_.cteHits);
    dump.set("sys.cte_misses", result_.cteMisses);
    dump.set("sys.cte_misses_after_tlb_miss",
             result_.cteMissesAfterTlbMiss);
    dump.set("sys.ml1_cte_hit", result_.ml1CteHit);
    dump.set("sys.ml1_parallel", result_.ml1Parallel);
    dump.set("sys.ml1_mismatch", result_.ml1Mismatch);
    dump.set("sys.ml1_serial", result_.ml1Serial);
    dump.set("sys.ml2_accesses", result_.ml2Accesses);
    dump.set("sys.dram_used_bytes", mc_->dramUsedBytes());
    dumpHistogram(dump, "sys.l3_miss_latency", result_.l3MissLatency);
    dumpHistogram(dump, "sys.page_walk_latency",
                  result_.pageWalkLatency);
    dumpHistogram(dump, "sys.ml2_fault_latency",
                  result_.ml2FaultLatency);
}

void
System::snapshotEpoch(Tick now)
{
    StatDump cur;
    dumpAllStats(cur);

    EpochStat e;
    e.accesses = result_.accesses;
    e.deltaAccesses = result_.accesses - prevEpochAccesses_;
    e.endTick = now > measureStart_ ? now - measureStart_ : 0;
    for (const auto &[name, v] : cur.all())
        e.delta.set(name, v - prevEpoch_.get(name));

    const double d_ml2 = e.delta.get("sys.ml2_accesses");
    const double d_denom = e.delta.get("sys.llc_misses") +
                           e.delta.get("sys.llc_writebacks");
    e.ml2AccessRate = d_denom > 0.0 ? d_ml2 / d_denom : 0.0;
    const double d_hits = e.delta.get("sys.cte_hits");
    const double d_total = d_hits + e.delta.get("sys.cte_misses");
    e.cteHitRate = d_total > 0.0 ? d_hits / d_total : 0.0;
    e.dramUsedBytes = cur.get("sys.dram_used_bytes");

    if (Tracer *tr = Tracer::active()) {
        const double ts = ticksToNs(now);
        tr->counter("ml2_access_rate", ts, e.ml2AccessRate);
        tr->counter("cte_hit_rate", ts, e.cteHitRate);
        tr->counter("dram_used_mb", ts,
                    e.dramUsedBytes / (1 << 20));
    }

    result_.epochs.push_back(std::move(e));
    prevEpoch_ = std::move(cur);
    prevEpochAccesses_ = result_.accesses;
}

void
System::setup()
{
    panicIf(setupDone_, "System::setup() ran twice");
    setupDone_ = true;
    const auto wall0 = std::chrono::steady_clock::now();

    claimTraceTrack();
    Tracer::PidScope pid_scope(tracePid_);

    warmPlacement();
    frames_ = std::vector<Ppn>();

    setupSeconds_ += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall0)
                        .count();
}

void
System::validateRunConfig() const
{
    fatalIf(cfg_.sampleWindows == 0 &&
                (cfg_.sampleWindowAccesses != 0 ||
                 cfg_.sampleWarmAccesses != 0),
            "sample window/warm-up sizes set but the sample window "
            "count is zero");
    if (cfg_.sampleWindows == 0)
        return;
    fatalIf(cfg_.sampleWindowAccesses == 0,
            "sample window size must be positive");
    const std::uint64_t per_window =
        cfg_.sampleWindowAccesses + cfg_.sampleWarmAccesses;
    fatalIf(cfg_.sampleWindows > cfg_.measureAccesses / per_window,
            "sampling needs windows x (window + warm-up) accesses <= "
            "measure accesses (" +
                std::to_string(cfg_.sampleWindows) + " x " +
                std::to_string(per_window) + " > " +
                std::to_string(cfg_.measureAccesses) + ")");
    fatalIf(cfg_.statsInterval > 0 &&
                cfg_.statsInterval < cfg_.sampleWindowAccesses,
            "--stats-interval must be at least the sample window size "
            "(epochs cannot be finer than the detailed windows)");
}

namespace
{

/**
 * Two-sided Student-t critical value at 95% confidence.  Exact table
 * for small df (the interesting regime: df = windows - 1), the normal
 * limit beyond 30.
 */
double
tCrit95(std::uint64_t df)
{
    static const double table[] = {
        0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
        2.306,  2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
        2.120,  2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
        2.064,  2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (df == 0)
        return 0.0;
    if (df <= 30)
        return table[df];
    return 1.960;
}

/** Mean and 95% CI half-width of the per-window observations. */
SampleMetric
summarize(const std::string &name, const std::vector<double> &xs)
{
    SampleMetric m;
    m.name = name;
    const auto n = static_cast<double>(xs.size());
    if (xs.empty())
        return m;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    m.mean = sum / n;
    if (xs.size() < 2)
        return m;
    double ss = 0.0;
    for (double x : xs)
        ss += (x - m.mean) * (x - m.mean);
    const double var = ss / (n - 1.0);
    m.ci95 = tCrit95(xs.size() - 1) * std::sqrt(var / n);
    return m;
}

} // namespace

SimResult
System::measure()
{
    validateRunConfig();
    if (!setupDone_)
        setup();
    const auto wall0 = std::chrono::steady_clock::now();
    Tracer::PidScope pid_scope(tracePid_);

    // One schedule.  A lead-in fast-forwards warm - lead accesses and
    // warms the last `lead` in detail.  Then each of k windows owns an
    // equal slice (stratum) of the measure-phase access budget and is
    // measured at its end, after a functional fast-forward and a short
    // detailed warm-up that re-primes timing state (SMARTS-style
    // detailed warming).  An exact run is the one-window case: the
    // window is the whole budget, with no window warm-up and an
    // all-detailed lead-in.
    const bool sampled = cfg_.sampleWindows > 0;
    const std::uint64_t k = sampled ? cfg_.sampleWindows : 1;
    const std::uint64_t w =
        sampled ? cfg_.sampleWindowAccesses : cfg_.measureAccesses;
    const std::uint64_t dw = cfg_.sampleWarmAccesses; // 0 unless sampled
    const std::uint64_t lead =
        sampled ? std::min(cfg_.warmAccesses, dw) : cfg_.warmAccesses;
    const std::uint64_t stratum = cfg_.measureAccesses / k;

    for (unsigned c = 0; c < cfg_.cores; ++c)
        cores_[c] = CoreState{};
    std::uint64_t ff_total = cfg_.warmAccesses - lead;
    fastForward(ff_total);
    runWarm(lead);

    // Epoch snapshots diff against this baseline so the first epoch's
    // deltas exclude warm-up activity.
    if (cfg_.statsInterval > 0) {
        prevEpoch_ = StatDump{};
        dumpAllStats(prevEpoch_);
        prevEpochAccesses_ = 0;
        nextEpochAt_ = cfg_.statsInterval;
    }

    const auto frac = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    std::vector<std::vector<double>> obs(10);
    Tick elapsed = 0;
    double bus_reads = 0.0, bus_writes = 0.0;

    for (std::uint64_t win = 0; win < k; ++win) {
        const std::uint64_t ff_n = stratum - w - dw;
        fastForward(ff_n);
        ff_total += ff_n;
        runWarm(dw);

        // Align clocks at the window start so the interleave is
        // well-defined.
        Tick start = 0;
        for (unsigned c = 0; c < cfg_.cores; ++c)
            start = std::max(start, cores_[c].now);
        for (unsigned c = 0; c < cfg_.cores; ++c) {
            cores_[c].now = start;
            cores_[c].accesses = 0;
        }
        if (win == 0)
            measureStart_ = start;

        const SimResult before = result_;
        const Tick reads0 = dram_->busBusyReads();
        const Tick writes0 = dram_->busBusyWrites();
        runMeasuredLoop(w);

        Tick end = 0;
        for (unsigned c = 0; c < cfg_.cores; ++c)
            end = std::max(end, cores_[c].now);
        mc_->drain(end);

        // This window's observations, from the counters' deltas.
        const Tick welapsed = end - start;
        elapsed += welapsed;
        const auto delta = [&](std::uint64_t SimResult::*counter) {
            return static_cast<double>(result_.*counter - before.*counter);
        };
        const auto mean = [&](Histogram SimResult::*h) {
            return frac((result_.*h).sampleSum() - (before.*h).sampleSum(),
                        static_cast<double>((result_.*h).count() -
                                            (before.*h).count()));
        };
        const double d_acc = delta(&SimResult::accesses);
        const double d_tlb_miss = delta(&SimResult::tlbMisses);
        const double d_llc_miss = delta(&SimResult::llcMisses);
        const double d_llc_wb = delta(&SimResult::llcWritebacks);
        const double d_cte_hit = delta(&SimResult::cteHits);
        const double d_bus_r =
            static_cast<double>(dram_->busBusyReads() - reads0);
        const double d_bus_w =
            static_cast<double>(dram_->busBusyWrites() - writes0);
        bus_reads += d_bus_r;
        bus_writes += d_bus_w;

        obs[0].push_back(frac(d_acc, ticksToNs(welapsed)));
        obs[1].push_back(frac(
            d_tlb_miss, delta(&SimResult::tlbHits) + d_tlb_miss));
        obs[2].push_back(frac(1000.0 * d_llc_miss, d_acc));
        obs[3].push_back(frac(1000.0 * d_llc_wb, d_acc));
        obs[4].push_back(frac(
            d_cte_hit, d_cte_hit + delta(&SimResult::cteMisses)));
        obs[5].push_back(
            frac(delta(&SimResult::ml2Accesses), d_llc_miss + d_llc_wb));
        obs[6].push_back(mean(&SimResult::l3MissLatency));
        obs[7].push_back(mean(&SimResult::pageWalkLatency));
        obs[8].push_back(frac(d_bus_r, static_cast<double>(welapsed)));
        obs[9].push_back(frac(d_bus_w, static_cast<double>(welapsed)));

        // Flush the final (possibly partial) epoch after the last
        // drain so the epoch deltas sum exactly to the end-of-run
        // totals.
        if (win + 1 == k && cfg_.statsInterval > 0 &&
            result_.accesses > prevEpochAccesses_)
            snapshotEpoch(end);
    }

    result_.elapsed = elapsed;
    result_.footprintBytes = footprintBytes_;
    result_.dramUsedBytes = mc_->dramUsedBytes();
    result_.avgL3MissLatencyNs = result_.l3MissLatency.mean();
    const Tick window = elapsed * cfg_.cores > 0 ? elapsed : Tick{1};
    result_.readBusUtil = bus_reads / static_cast<double>(window);
    result_.writeBusUtil = bus_writes / static_cast<double>(window);

    // Raw component counters plus sys.* pipeline counters.
    dumpAllStats(result_.stats);

    // Phase bookkeeping (wall-clock only; never part of the StatDump,
    // so bit-identity comparisons are unaffected).
    result_.setupSeconds = setupSeconds_;
    result_.measureSeconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - wall0)
                                 .count();
    if (!sampled)
        return result_;

    // CI summary over the k windows for every headline metric.
    static const char *const names[10] = {
        "accesses_per_ns",       "tlb_miss_rate",
        "llc_misses_per_kacc",   "llc_writebacks_per_kacc",
        "cte_hit_rate",          "ml2_access_rate",
        "l3_miss_latency_ns",    "page_walk_latency_ns",
        "read_bus_util",         "write_bus_util",
    };
    result_.sample.windows = k;
    result_.sample.windowAccesses = w;
    result_.sample.warmupAccesses = dw;
    result_.sample.ffAccesses = ff_total;
    result_.sample.metrics.clear();
    for (unsigned i = 0; i < 10; ++i)
        result_.sample.metrics.push_back(summarize(names[i], obs[i]));

    // Exported here (not in dumpAllStats, which epochs also call) so
    // the summary appears once, at end of run.
    result_.stats.set("sys.sample.windows", k);
    result_.stats.set("sys.sample.window_accesses", w);
    for (const SampleMetric &m : result_.sample.metrics) {
        result_.stats.set("sys.sample." + m.name + ".mean", m.mean);
        result_.stats.set("sys.sample." + m.name + ".ci95", m.ci95);
    }
    return result_;
}

} // namespace tmcc
