#include "compresso/compresso_mc.hh"

#include "mc/cte.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/trace.hh"

namespace tmcc
{

namespace
{

/** CTE table lives in a reserved region at the top of DRAM space. */
constexpr Addr cteTableBase = 1ULL << 46;

} // namespace

CompressoMc::CompressoMc(DramSystem &dram, const PageInfoProvider &info,
                         const CompressoConfig &cfg)
    : MemController(dram), info_(info), cfg_(cfg),
      cteCache_(cfg.cteCacheBytes, /*pages_per_block=*/1),
      llcVictim_(cfg.llcVictimBytes, 1),
      freeChunks_(cfg.chunkBytes), rng_(0xc0de)
{
    // Seed the chunk pool over the data region (everything below the
    // CTE table); sized generously, actual usage is what matters.  The
    // list holds the range implicitly, so its size costs nothing.
    freeChunks_.seed(0, dram.capacityBytes() / cfg.chunkBytes);
}

CompressoMc::PageState &
CompressoMc::pageState(Ppn ppn)
{
    placePage(ppn);
    return pages_[ppn];
}

void
CompressoMc::placePage(Ppn ppn)
{
    if (ppn >= pages_.size())
        pages_.resize(ppn + 1);
    PageState &ps = pages_[ppn];
    if (ps.registered)
        return;
    const PageProfile &prof = info_.profile(ppn);
    ps.compressedBytes =
        std::min<std::uint32_t>(prof.blockBytes, pageSize);
    const auto chunks = std::max<std::uint32_t>(
        1, (ps.compressedBytes + cfg_.chunkBytes - 1) / cfg_.chunkBytes);
    for (std::uint32_t i = 0; i < chunks; ++i)
        ps.chunks.push_back(freeChunks_.pop());
    usedBytes_ += chunks * cfg_.chunkBytes;
    ps.registered = true;
}

Addr
CompressoMc::blockDramAddr(const PageState &ps, Addr paddr) const
{
    // Blocks pack contiguously; block i starts at roughly its
    // proportional offset in the packed stream.  (Real Compresso tracks
    // exact per-block offsets in the CTE; proportional placement gives
    // the same chunk/bank behaviour without 64 offsets per page.)
    const unsigned blk = blockInPage(paddr);
    const std::uint64_t offset =
        static_cast<std::uint64_t>(blk) * ps.compressedBytes /
        blocksPerPage;
    const std::size_t chunk_idx = offset / cfg_.chunkBytes;
    return ps.chunks[std::min(chunk_idx, ps.chunks.size() - 1)] +
           (offset % cfg_.chunkBytes);
}

Addr
CompressoMc::cteDramAddr(Ppn ppn) const
{
    return cteTableBase + ppn * blockCteBytes;
}

McReadResponse
CompressoMc::read(const McReadRequest &req)
{
    reads_.inc();
    McReadResponse resp;
    const Ppn ppn = pageNumber(req.paddr);
    const PageState &ps = pageState(ppn);
    const Tick t0 = req.when + nsToTicks(cfg_.mcProcNs);

    if (req.background) {
        // Prefetch fill: exercises the CTE cache (prefetches need
        // translations like any request, §III) but rides idle DRAM
        // slots -- no contention charged at request level.
        resp.cteCacheHit = cteCache_.lookup(ppn);
        if (!resp.cteCacheHit)
            cteCache_.insert(ppn);
        resp.complete = req.when;
        return resp;
    }

    if (cteCache_.lookup(ppn)) {
        resp.cteCacheHit = true;
        resp.complete = dram_.read(blockDramAddr(ps, req.paddr), t0) +
                        nsToTicks(cfg_.blockDecompressNs);
        if (Tracer *tr = Tracer::active())
            tr->complete("compresso_read", "mc", req.core,
                         ticksToNs(req.when),
                         ticksToNs(resp.complete - req.when));
        return resp;
    }

    // CTE miss.  Optionally check the LLC victim path first (§III):
    // the CTE comes back ~20ns later than a dedicated-cache hit, and a
    // victim *miss* delays even the DRAM fetch by the LLC latency.
    Tick cte_ready;
    if (cfg_.cteVictimInLlc) {
        if (llcVictim_.lookup(ppn)) {
            llcVictimHits_.inc();
            cte_ready = t0 + nsToTicks(cfg_.llcVictimLatNs);
        } else {
            llcVictimMisses_.inc();
            cteDramFetches_.inc();
            cte_ready = dram_.read(cteDramAddr(ppn),
                                   t0 + nsToTicks(cfg_.llcVictimLatNs));
        }
    } else {
        cteDramFetches_.inc();
        cte_ready = dram_.read(cteDramAddr(ppn), t0);
    }
    // Dedicated cache refill may evict a CTE into the LLC victim path.
    cteCache_.insert(ppn);
    if (cfg_.cteVictimInLlc)
        llcVictim_.insert(ppn);

    resp.serializedNoCte = true;
    resp.complete = dram_.read(blockDramAddr(ps, req.paddr), cte_ready) +
                    nsToTicks(cfg_.blockDecompressNs);
    if (Tracer *tr = Tracer::active())
        tr->complete("compresso_read", "mc", req.core,
                     ticksToNs(req.when),
                     ticksToNs(resp.complete - req.when));
    return resp;
}

void
CompressoMc::writeback(Addr paddr, Tick when, bool /*line_compressed*/)
{
    writebacks_.inc();
    const Ppn ppn = pageNumber(paddr);
    PageState &ps = pageState(ppn);
    const PageProfile &prof = info_.profile(ppn);

    dram_.write(blockDramAddr(ps, paddr), when);

    // Compression-ratio churn: occasionally the block no longer fits
    // its slot and the page must repack / grow (§II).
    if (rng_.chance(prof.overflowP)) {
        repacks_.inc();
        // Repacking moves blocks in the background (prior works repack
        // lazily); charge bytes, not demand-path DRAM time.
        repackBytes_ += static_cast<std::size_t>(
            blocksPerPage * cfg_.repackBlockFraction) * blockSize;
        // Grow or shrink by one chunk with equal probability, keeping
        // long-run usage near the profile's packed size.
        const std::uint64_t target_chunks = std::max<std::uint64_t>(
            1, (prof.blockBytes + cfg_.chunkBytes - 1) / cfg_.chunkBytes);
        if (ps.chunks.size() <= target_chunks && !freeChunks_.empty()) {
            ps.chunks.push_back(freeChunks_.pop());
            usedBytes_ += cfg_.chunkBytes;
        } else if (ps.chunks.size() > target_chunks) {
            freeChunks_.push(ps.chunks.back());
            ps.chunks.pop_back();
            usedBytes_ -= cfg_.chunkBytes;
        }
        // Metadata update goes to DRAM (posted) and invalidates stale
        // cached copies.
        cteWrites_.inc();
        dram_.write(cteDramAddr(ppn), when);
        cteCache_.insert(ppn);
    }
}

std::uint64_t
CompressoMc::dramUsedBytes() const
{
    return usedBytes_;
}

void
CompressoMc::dumpStats(StatDump &dump, const std::string &prefix) const
{
    dump.set(prefix + ".reads", reads_.value());
    dump.set(prefix + ".writebacks", writebacks_.value());
    dump.set(prefix + ".repacks", repacks_.value());
    dump.set(prefix + ".cte_writes", cteWrites_.value());
    dump.set(prefix + ".cte_dram_fetches", cteDramFetches_.value());
    dump.set(prefix + ".llc_victim_hits", llcVictimHits_.value());
    dump.set(prefix + ".llc_victim_misses", llcVictimMisses_.value());
    dump.set(prefix + ".dram_used_bytes", usedBytes_);
    dump.set(prefix + ".repack_bytes", repackBytes_);
    cteCache_.dumpStats(dump, prefix + ".cte_cache");
}

} // namespace tmcc
