/**
 * @file
 * The Compresso baseline (Choukse et al., MICRO 2018) as characterized
 * in §II/III of the TMCC paper: block-level best-of-four compression,
 * data packed into 512B chunks, a 64B metadata block (CTE) per 4KB page
 * holding per-block positions, a 128KB CTE cache (Table III), and
 * strictly *serial* CTE-then-data DRAM access on CTE-cache misses.
 *
 * Optional knobs reproduce the §III design alternatives: a larger CTE
 * cache (Fig. 2's "4X") and using the LLC as a victim cache for evicted
 * CTEs (with the ~20ns NoC round trip that makes it a wash).
 */

#ifndef TMCC_COMPRESSO_COMPRESSO_MC_HH
#define TMCC_COMPRESSO_COMPRESSO_MC_HH

#include <vector>

#include "common/rng.hh"
#include "mc/cte_cache.hh"
#include "mc/free_list.hh"
#include "mc/mem_controller.hh"
#include "mc/page_profile.hh"

namespace tmcc
{

/** Compresso configuration. */
struct CompressoConfig
{
    std::size_t cteCacheBytes = 128 * 1024; //!< Table III
    std::size_t chunkBytes = 512;
    double mcProcNs = 1.0;          //!< metadata pipeline
    double blockDecompressNs = 3.0; //!< BDI/BPC/CPack-class latency
    double llcVictimLatNs = 20.0;   //!< LLC round trip (§III)
    bool cteVictimInLlc = false;    //!< Fig. 2 alternative
    std::size_t llcVictimBytes = 1 * 1024 * 1024; //!< LLC share modelled
    double repackBlockFraction = 0.25; //!< blocks rewritten per repack
};

/** The Compresso memory controller. */
class CompressoMc final : public MemController
{
  public:
    CompressoMc(DramSystem &dram, const PageInfoProvider &info,
                const CompressoConfig &cfg = CompressoConfig{});

    /** Place and pack one physical page (done in bulk at warm-up). */
    void placePage(Ppn ppn) override;
    bool hasCtes() const override { return true; }

    McReadResponse read(const McReadRequest &req) override;
    void writeback(Addr paddr, Tick when, bool line_compressed) override;

    /** Fast-forward: keep CTE-cache residency warm, nothing else. */
    void
    functionalTouch(Ppn ppn, bool /*is_write*/, Tick /*now*/) override
    {
        if (!cteCache_.lookup(ppn))
            cteCache_.insert(ppn);
    }

    std::uint64_t dramUsedBytes() const override;

    CteCache &cteCache() { return cteCache_; }

    void dumpStats(StatDump &dump,
                   const std::string &prefix) const override;

  private:
    struct PageState
    {
        std::vector<Addr> chunks;
        std::uint32_t compressedBytes = 0;
        bool registered = false;
    };

    PageState &pageState(Ppn ppn);

    /** DRAM address of block `paddr` inside its packed page. */
    Addr blockDramAddr(const PageState &ps, Addr paddr) const;

    /** DRAM address of the 64B CTE for `ppn`. */
    Addr cteDramAddr(Ppn ppn) const;

    const PageInfoProvider &info_;
    CompressoConfig cfg_;
    CteCache cteCache_;
    CteCache llcVictim_; //!< models CTEs spilled into the LLC
    ChunkFreeList freeChunks_;
    std::vector<PageState> pages_; //!< by Ppn, grown on registration
    std::uint64_t usedBytes_ = 0;
    std::uint64_t repackBytes_ = 0;
    Rng rng_;

    Counter reads_, writebacks_, repacks_, cteWrites_, cteDramFetches_;
    Counter llcVictimHits_, llcVictimMisses_;
};

} // namespace tmcc

#endif // TMCC_COMPRESSO_COMPRESSO_MC_HH
