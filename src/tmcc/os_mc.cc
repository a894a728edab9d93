#include "tmcc/os_mc.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/trace.hh"

namespace tmcc
{

namespace
{

/** The linear page-level CTE table sits above the data region. */
constexpr Addr cteTableBase = 1ULL << 46;

} // namespace

OsInspiredMc::OsInspiredMc(DramSystem &dram, const PageInfoProvider &info,
                           const PhysMem &phys_mem, const OsMcConfig &cfg)
    : MemController(dram), info_(info), physMem_(phys_mem), cfg_(cfg),
      codec_(cfg.ptb),
      cteCache_(cfg.cteCacheBytes,
                /*pages_per_block=*/blockSize / pageCteBytes),
      ml2Free_(ml1Free_),
      recency_(cfg.recencySampleP, RecencyList::defaultSeed,
               phys_mem.totalPages()),
      migrationSlots_(cfg.migrationBufferEntries, 0)
{
    // Seed ML1 with the DRAM budget worth of 4KB frames.
    ml1Free_.seed(0, cfg.dramBudgetBytes / pageSize);
    nextExtraFrame_ = cfg.dramBudgetBytes / pageSize;

    // Size the dense per-page tables for the whole physical pool up
    // front so the hot path never resizes.
    cteTable_.resize(phys_mem.totalPages());
    ml2Location_.resize(phys_mem.totalPages());

    if (cfg.embedCtes) {
        cteBuffers_.assign(cfg.cores, CteBuffer(cfg.cteBufferEntries,
                                                phys_mem.totalPages()));
        ptShadowIndex_.assign(phys_mem.totalPages(), noShadow);
    }
}

PageCte &
OsInspiredMc::cte(Ppn ppn)
{
    ensureTables(ppn);
    if (!cteTable_[ppn].valid)
        placePage(ppn);
    return cteTable_[ppn];
}

Addr
OsInspiredMc::cteDramAddr(Ppn ppn) const
{
    return cteTableBase + ppn * pageCteBytes;
}

Addr
OsInspiredMc::ml1BlockAddr(const PageCte &c, Addr paddr) const
{
    return (c.dramFrame << pageShift) + (paddr & (pageSize - 1));
}

void
OsInspiredMc::placePage(Ppn ppn)
{
    ensureTables(ppn);
    if (cteTable_[ppn].valid)
        return;

    PageCte c;
    c.valid = true;
    const PageProfile &prof = info_.profile(ppn);

    // Hottest-first placement: go to ML1 while under the placement
    // target and frames remain above the low watermark; afterwards
    // compress straight into ML2.
    const bool ml1_has_room = ml1Pages_ < cfg_.ml1TargetPages &&
                              ml1Free_.size() > cfg_.freeListLow;
    if (ml1_has_room || prof.deflateIncompressible()) {
        c.level = PageLevel::ML1;
        c.dramFrame = popMl1Frame(0);
        c.isIncompressible = prof.deflateIncompressible();
        ++ml1Pages_;
        if (!c.isIncompressible)
            recency_.insertHot(ppn);
        else
            incompressibleRetained_.inc();
    } else {
        // Keep the free-list floor intact while ML2 carves chunks out
        // of it: evict ahead of demand (§VI watermarks).
        maintainFreeList(0);
        SubChunk sc;
        const unsigned cls = Ml2FreeLists::classFor(prof.deflateBytes);
        if (cls < subChunkClasses.size() && ml2Free_.alloc(cls, sc)) {
            c.level = PageLevel::ML2;
            c.ml2Addr = sc.dramAddr;
            c.dramFrame = sc.dramAddr >> pageShift;
            ml2Location_[ppn] = {sc, true};
        } else {
            // No class fits (or DRAM exhausted): keep uncompressed,
            // evicting already-placed cold pages if ML1 ran dry.
            c.level = PageLevel::ML1;
            c.dramFrame = popMl1Frame(0);
            c.isIncompressible = true;
            ++ml1Pages_;
            incompressibleRetained_.inc();
        }
    }
    cteTable_[ppn] = c;
}

McReadResponse
OsInspiredMc::read(const McReadRequest &req)
{
    const Ppn ppn = pageNumber(req.paddr);
    CteBuffer *buffer =
        cteBuffers_.empty() ? nullptr : &cteBuffers_[req.core];

    // L2 consults the CTE buffer on the demand miss and piggybacks a
    // hit's embedded CTE on the request (§V-A3).
    std::optional<std::uint64_t> embedded;
    if (buffer != nullptr && !req.background) {
        const CteBuffer::Entry *e = buffer->lookup(ppn);
        if (e != nullptr && e->hasCte)
            embedded = e->cte;
    }

    reads_.inc();
    PageCte &c = cte(ppn);
    McReadResponse resp;
    if (req.background) {
        // Prefetch fill: CTE-cache pressure without DRAM contention.
        resp.cteCacheHit = cteCache_.lookup(ppn);
        if (!resp.cteCacheHit)
            cteCache_.insert(ppn);
        resp.hitMl2 = c.level == PageLevel::ML2;
        resp.complete = req.when;
    } else if (c.level == PageLevel::ML1) {
        ml1Reads_.inc();
        recency_.touch(ppn);
        resp = readMl1(req, c, embedded);
    } else {
        ml2Reads_.inc();
        resp = readMl2(req, ppn, c);
    }

    // The response carries the correct CTE back to the buffer; a stale
    // entry names the PTB to patch lazily (§V-A3).
    if (buffer != nullptr) {
        const std::uint64_t correct =
            c.truncated(codec_.truncatedCteBits());
        resp.stalePtb = buffer->updateOnResponse(ppn, correct);
        if (resp.stalePtb != invalidAddr)
            lazyUpdatePtb(resp.stalePtb, ppn, correct);
    }
    return resp;
}

bool
OsInspiredMc::walkerFetched(unsigned core, Addr ptb_addr)
{
    if (cteBuffers_.empty())
        return false;
    const PtbView view = ptbView(ptb_addr);
    if (!view.compressed)
        return false;
    CteBuffer &buffer = cteBuffers_[core];
    for (unsigned i = 0; i < ptesPerPtb; ++i)
        if (view.present[i])
            buffer.insert(view.ppns[i], view.hasCte[i], view.cte[i],
                          ptb_addr);
    return true;
}

void
OsInspiredMc::functionalTouch(Ppn ppn, bool /*is_write*/, Tick now)
{
    // Fast-forward analogue of read(): keep the translation and
    // placement state hot -- CTE-cache residency, ML1 recency, and the
    // demand-triggered ML2->ML1 migration -- without DRAM timing,
    // demand counters or migration-slot stall bookkeeping.
    PageCte &c = cte(ppn);
    if (!cteCache_.lookup(ppn))
        cteCache_.insert(ppn);
    if (c.level == PageLevel::ML1)
        recency_.touch(ppn);
    else
        migrateToMl1(ppn, c, std::max(now, migCursor_));
}

McReadResponse
OsInspiredMc::readMl1(const McReadRequest &req, PageCte &c,
                      std::optional<std::uint64_t> embedded)
{
    McReadResponse resp;
    const Ppn ppn = pageNumber(req.paddr);
    const Tick t0 = req.when + nsToTicks(cfg_.mcProcNs);
    const Addr data_addr = ml1BlockAddr(c, req.paddr);

    if (cteCache_.lookup(ppn)) {
        resp.cteCacheHit = true;
        resp.complete = dram_.read(data_addr, t0);
        return resp;
    }

    // CTE cache miss.
    if (embedded) {
        // Speculative parallel access (Fig. 11): use the embedded CTE
        // to fetch data while the real CTE is verified from DRAM.
        const Addr spec_addr =
            (*embedded << pageShift) + (req.paddr & (pageSize - 1));
        cteDramFetches_.inc();
        const Tick cte_ready = dram_.read(cteDramAddr(ppn), t0);
        const Tick spec_done = dram_.read(spec_addr, t0);
        cteCache_.insert(ppn);

        if (*embedded == c.truncated(codec_.truncatedCteBits())) {
            parallelAccesses_.inc();
            resp.parallelAccess = true;
            resp.complete = std::max(cte_ready, spec_done);
        } else {
            // Fig. 8c: verification failed; re-access with the correct
            // CTE after both DRAM accesses complete.
            mismatches_.inc();
            resp.embeddedMismatch = true;
            resp.complete = dram_.read(
                data_addr, std::max(cte_ready, spec_done));
        }
        return resp;
    }

    // No embedded CTE: the baseline serial fetch (Fig. 8a).
    serialFetches_.inc();
    resp.serializedNoCte = true;
    cteDramFetches_.inc();
    const Tick cte_ready = dram_.read(cteDramAddr(ppn), t0);
    cteCache_.insert(ppn);
    resp.complete = dram_.read(data_addr, cte_ready);
    return resp;
}

Tick
OsInspiredMc::deflateDecompressToOffset(const PageProfile &prof,
                                        std::size_t offset) const
{
    if (cfg_.fastDeflate) {
        CompressedPage page;
        page.originalSize = pageSize;
        page.sizeBits = static_cast<std::size_t>(prof.deflateBytes) * 8;
        page.lzTokens = prof.lzTokens;
        page.huffmanUsed = prof.huffmanUsed;
        return fastTiming_.decompressLatencyToOffset(page, offset);
    }
    return ibmTiming_.decompressLatencyToOffset(pageSize, offset);
}

Tick
OsInspiredMc::deflateCompressLatency(const PageProfile &prof) const
{
    if (cfg_.fastDeflate) {
        CompressedPage page;
        page.originalSize = pageSize;
        page.sizeBits = static_cast<std::size_t>(prof.deflateBytes) * 8;
        page.lzTokens = prof.lzTokens;
        page.huffmanUsed = prof.huffmanUsed;
        return fastTiming_.timing(page).compressLatency;
    }
    return ibmTiming_.compressLatency(pageSize);
}

McReadResponse
OsInspiredMc::readMl2(const McReadRequest &req, Ppn ppn, PageCte &c)
{
    McReadResponse resp;
    resp.hitMl2 = true;
    Tick t = req.when + nsToTicks(cfg_.mcProcNs);

    // The sub-chunk address comes from the CTE; resolve it first.
    if (cteCache_.lookup(ppn)) {
        resp.cteCacheHit = true;
    } else {
        cteDramFetches_.inc();
        resp.serializedNoCte = true;
        t = dram_.read(cteDramAddr(ppn), t);
        cteCache_.insert(ppn);
    }

    // Migration buffer full => the ML2 access stalls (§VI).
    auto slot = std::min_element(migrationSlots_.begin(),
                                 migrationSlots_.end());
    if (*slot > t) {
        migrationStalls_.inc();
        t = *slot;
    }

    const PageProfile &prof = info_.profile(ppn);

    // Stream the compressed payload from DRAM; the first beat gates the
    // decompressor, the rest overlap with decompression (its pipeline
    // consumes faster than one DDR4 channel supplies) and ride the
    // background-bandwidth share.
    const Tick first_beat = dram_.read(c.ml2Addr, t);
    backgroundBytes_ += prof.deflateBytes;
    resp.complete = first_beat + deflateDecompressToOffset(
                                     prof, req.paddr & (pageSize - 1));

    // Background migration to ML1 (§VI): occupy a buffer slot until the
    // full page has decompressed and written back to a fresh frame.
    const Tick full_page_done = std::max(
        first_beat +
            deflateDecompressToOffset(prof, pageSize - blockSize),
        migCursor_);
    migrateToMl1(ppn, c, full_page_done);
    *slot = std::max(full_page_done, migCursor_);

    if (Tracer *tr = Tracer::active()) {
        tr->complete("ml2_fault", "mc", req.core, ticksToNs(req.when),
                     ticksToNs(resp.complete - req.when));
        tr->complete("deflate_decompress", "compress", req.core,
                     ticksToNs(first_beat),
                     ticksToNs(resp.complete - first_beat));
    }
    return resp;
}

void
OsInspiredMc::migrateToMl1(Ppn ppn, PageCte &c, Tick start)
{
    migrationsIn_.inc();

    // Free the ML2 sub-chunk and take a fresh ML1 frame.
    panicIf(ppn >= ml2Location_.size() || !ml2Location_[ppn].valid,
            "ML2 page without a sub-chunk");
    ml2Free_.free(ml2Location_[ppn].sc);
    ml2Location_[ppn].valid = false;

    const DramFrame frame = popMl1Frame(start);
    c.level = PageLevel::ML1;
    c.dramFrame = frame;
    ++ml1Pages_;

    // The 4KB of block writes go out at background priority through
    // the migration bandwidth share (§VI: capped queue slots, rank-
    // targeted write mode), so they delay migrations, not demand.
    migCursor_ = std::max(migCursor_, start) +
                 nsToTicks(pageSize / cfg_.migrationGBs);
    backgroundBytes_ += pageSize;
    dram_.write(cteDramAddr(ppn), start); // CTE update (posted)
    cteCache_.insert(ppn);
    recency_.insertHot(ppn);
}

DramFrame
OsInspiredMc::popMl1Frame(Tick when)
{
    maintainFreeList(when);
    if (ml1Free_.empty()) {
        // The usage target cannot be met (e.g., incompressible data
        // exceeds it).  Physical DRAM still backs every page, so the
        // design simply saves less than targeted: extend the pool and
        // account the overrun (visible in dramUsedBytes()).
        budgetOverruns_.inc();
        ml1Free_.seed(nextExtraFrame_, 64);
        nextExtraFrame_ += 64;
    }
    return ml1Free_.pop();
}

void
OsInspiredMc::maintainFreeList(Tick when)
{
    if (ml1Free_.size() >= cfg_.freeListLow)
        return;
    std::size_t evicted = 0;
    while (ml1Free_.size() < cfg_.freeListLow &&
           evicted < cfg_.evictBatch && recency_.size() > 0) {
        const Ppn victim = recency_.popColdest();
        switch (evictToMl2(victim, when)) {
          case EvictOutcome::Evicted:
            ++evicted;
            break;
          case EvictOutcome::Incompressible:
            break; // retained in ML1, off the list; try the next page
          case EvictOutcome::NoSpace:
            // ML2 cannot grow right now; put the victim back and stop.
            recency_.insertCold(victim);
            return;
        }
    }
}

OsInspiredMc::EvictOutcome
OsInspiredMc::evictToMl2(Ppn ppn, Tick when)
{
    panicIf(ppn >= cteTable_.size() || !cteTable_[ppn].valid,
            "evicting unplaced page");
    PageCte &c = cteTable_[ppn];
    panicIf(c.level != PageLevel::ML1, "evicting non-ML1 page");

    const PageProfile &prof = info_.profile(ppn);
    const unsigned cls = Ml2FreeLists::classFor(prof.deflateBytes);
    if (prof.deflateIncompressible() || cls >= subChunkClasses.size()) {
        // Retain in ML1, mark incompressible, drop from the Recency
        // List so it is not repeatedly retried (§IV-B).
        c.isIncompressible = true;
        incompressibleRetained_.inc();
        return EvictOutcome::Incompressible;
    }

    SubChunk sc;
    if (!ml2Free_.alloc(cls, sc))
        return EvictOutcome::NoSpace; // DRAM fully committed

    migrationsOut_.inc();

    // Page read + compressed write ride the background share; the
    // read of the victim overlaps the write of the compressed output
    // (different banks/ranks), so only the larger leg serializes.
    migCursor_ = std::max(migCursor_, when) +
                 nsToTicks(pageSize / cfg_.migrationGBs);
    backgroundBytes_ += pageSize + prof.deflateBytes;
    const Tick done = std::max(migCursor_,
                               when + deflateCompressLatency(prof));

    if (Tracer *tr = Tracer::active())
        tr->complete("deflate_compress", "compress",
                     backgroundTid, ticksToNs(when),
                     ticksToNs(done - when));

    ml1Free_.push(c.dramFrame);
    --ml1Pages_;
    c.level = PageLevel::ML2;
    c.ml2Addr = sc.dramAddr;
    c.dramFrame = sc.dramAddr >> pageShift;
    ml2Location_[ppn] = {sc, true};
    dram_.write(cteDramAddr(ppn), done);
    cteCache_.insert(ppn);
    return EvictOutcome::Evicted;
}

void
OsInspiredMc::writeback(Addr paddr, Tick when, bool /*line_compressed*/)
{
    writebacks_.inc();
    const Ppn ppn = pageNumber(paddr);
    PageCte &c = cte(ppn);

    if (c.level == PageLevel::ML1) {
        dram_.write(ml1BlockAddr(c, paddr), when);
        if (c.isIncompressible && recency_.maybeReadmit(ppn))
            c.isIncompressible = false;
        return;
    }

    // Rare race: the dirty line outlived its page's eviction to ML2.
    // Bring the page back to ML1 (a store to it is imminent anyway).
    const PageProfile &prof = info_.profile(ppn);
    const Tick back = when + deflateDecompressToOffset(prof, pageSize - 1);
    migrateToMl1(ppn, c, back);
    dram_.write(ml1BlockAddr(c, paddr), back);
}

OsInspiredMc::PtbView
OsInspiredMc::ptbView(Addr ptb_addr)
{
    PtbView view;
    const Ppn ptb_page = pageNumber(ptb_addr);
    if (!physMem_.isPageTablePage(ptb_page))
        return view; // data block fetched by the walker path; no PTEs

    const PtPage &page = physMem_.ptPage(ptb_page);
    const std::size_t first =
        (ptb_addr & (pageSize - 1)) / pteSize;
    const std::uint64_t *ptes = &page[first];

    const PtbAnalysis analysis = codec_.analyze(ptes);
    if (!analysis.compressible) {
        ptbIncompressibleFetches_.inc();
        return view;
    }
    ptbCompressedFetches_.inc();
    view.compressed = true;

    if (ptb_page >= ptShadowIndex_.size())
        ptShadowIndex_.resize(ptb_page + 1, noShadow);
    if (ptShadowIndex_[ptb_page] == noShadow) {
        ptShadowIndex_[ptb_page] =
            static_cast<std::uint32_t>(ptShadows_.size());
        ptShadows_.emplace_back();
    }
    PtbShadow &shadow = *findShadow(ptb_addr);
    const bool fresh = !shadow.valid;
    shadow.valid = true;

    for (unsigned i = 0; i < ptesPerPtb; ++i) {
        view.present[i] = ptePresent(ptes[i]);
        view.ppns[i] = ptePpn(ptes[i]);
        if (!view.present[i] || i >= analysis.cteSlots)
            continue;
        if (fresh) {
            // First compression of this PTB: embed current CTEs.
            const Ppn data_ppn = view.ppns[i];
            if (data_ppn < cteTable_.size() &&
                cteTable_[data_ppn].valid) {
                shadow.hasCte[i] = true;
                shadow.cte[i] = cteTable_[data_ppn].truncated(
                    codec_.truncatedCteBits());
            }
        }
        view.hasCte[i] = shadow.hasCte[i];
        view.cte[i] = shadow.cte[i];
    }

    return view;
}

void
OsInspiredMc::lazyUpdatePtb(Addr ptb_addr, Ppn ppn, std::uint64_t new_cte)
{
    PtbShadow *shadow = findShadow(ptb_addr);
    if (shadow == nullptr || !shadow->valid)
        return; // never compressed: nothing embedded to patch
    const Ppn ptb_page = pageNumber(ptb_addr);
    if (!physMem_.isPageTablePage(ptb_page))
        return;
    const PtPage &page = physMem_.ptPage(ptb_page);
    const std::size_t first = (ptb_addr & (pageSize - 1)) / pteSize;
    for (unsigned i = 0; i < ptesPerPtb; ++i) {
        if (ptePpn(page[first + i]) == ppn &&
            ptePresent(page[first + i])) {
            shadow->hasCte[i] = true;
            shadow->cte[i] = new_cte;
            lazyPtbUpdates_.inc();
        }
    }
}

std::uint64_t
OsInspiredMc::truncatedCte(Ppn ppn)
{
    return cte(ppn).truncated(codec_.truncatedCteBits());
}

bool
OsInspiredMc::inMl2(Ppn ppn)
{
    return cte(ppn).level == PageLevel::ML2;
}

std::uint64_t
OsInspiredMc::dramUsedBytes() const
{
    return ml1Pages_ * pageSize + ml2Free_.heldChunks() * pageSize +
           recency_.overheadBytes();
}

void
OsInspiredMc::dumpStats(StatDump &dump, const std::string &prefix) const
{
    dump.set(prefix + ".reads", reads_.value());
    dump.set(prefix + ".writebacks", writebacks_.value());
    dump.set(prefix + ".ml1_reads", ml1Reads_.value());
    dump.set(prefix + ".ml2_reads", ml2Reads_.value());
    dump.set(prefix + ".parallel_accesses", parallelAccesses_.value());
    dump.set(prefix + ".mismatches", mismatches_.value());
    dump.set(prefix + ".serial_fetches", serialFetches_.value());
    dump.set(prefix + ".migrations_in", migrationsIn_.value());
    dump.set(prefix + ".migrations_out", migrationsOut_.value());
    dump.set(prefix + ".migration_stalls", migrationStalls_.value());
    dump.set(prefix + ".incompressible_retained",
             incompressibleRetained_.value());
    dump.set(prefix + ".cte_dram_fetches", cteDramFetches_.value());
    dump.set(prefix + ".ptb_compressed_fetches",
             ptbCompressedFetches_.value());
    dump.set(prefix + ".ptb_incompressible_fetches",
             ptbIncompressibleFetches_.value());
    dump.set(prefix + ".lazy_ptb_updates", lazyPtbUpdates_.value());
    dump.set(prefix + ".ml1_pages", ml1Pages_);
    dump.set(prefix + ".background_bytes", backgroundBytes_);
    dump.set(prefix + ".budget_overruns", budgetOverruns_.value());
    dump.set(prefix + ".dram_used_bytes", dramUsedBytes());
    cteCache_.dumpStats(dump, prefix + ".cte_cache");
    recency_.dumpStats(dump, prefix + ".recency");
    ml1Free_.dumpStats(dump, prefix + ".ml1_free");
    ml2Free_.dumpStats(dump, prefix + ".ml2_free");
}

void
OsInspiredMc::dumpCoreStats(StatDump &dump, unsigned core,
                            const std::string &prefix) const
{
    if (core < cteBuffers_.size())
        cteBuffers_[core].dumpStats(dump, prefix + ".cte_buffer");
}

} // namespace tmcc
