/**
 * @file
 * The MC's dedicated CTE cache (§II/III).  It caches 64B CTE *blocks*:
 * under TMCC each block holds eight 8B page-level CTEs (32KB reach per
 * block, Table III); under Compresso one block is a single page's
 * metadata (4KB reach).
 *
 * The cache is indexed by CTE block number = PPN / entriesPerBlock, so
 * page-level translation gets its 8x reach (and the spatial-locality
 * benefit of §IV) purely from the format, exactly as in the paper.
 *
 * Way metadata is structure-of-arrays on the common/simd.hh probe
 * engine, one row per set: a 32-bit tag row of CTE block numbers and a
 * one-byte recency-rank row (rank 0 = most recently used), each padded
 * so the lookup is a whole-set vector compare and the LRU update and
 * victim pick are single byte-vector operations — the same engine, and
 * the same bit-identical-to-scalar contract, as Cache and Tlb.  Tags
 * are 32-bit keys: installing a block number past simd::maxKey panics
 * and looking one up misses.
 */

#ifndef TMCC_MC_CTE_CACHE_HH
#define TMCC_MC_CTE_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/simd.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace tmcc
{

/** Set-associative cache of CTE blocks. */
class CteCache : public Stated
{
  public:
    /**
     * @param size_bytes      total capacity (64KB TMCC, 128KB Compresso)
     * @param pages_per_block CTEs covered by one 64B block (8 or 1)
     */
    CteCache(std::size_t size_bytes, unsigned pages_per_block,
             unsigned assoc = 8);

    /** Look up the CTE covering `ppn`; updates LRU. */
    bool
    lookup(Ppn ppn)
    {
        const std::uint64_t tag = blockOf(ppn);
        const std::size_t set = setIndexOf(tag);
        if (const std::uint64_t m = matchMask(set, tag)) {
            touchRank(set, simd::firstWay(m));
            hits_.inc();
            return true;
        }
        misses_.inc();
        return false;
    }

    /** Probe without side effects. */
    bool
    probe(Ppn ppn) const
    {
        const std::uint64_t tag = blockOf(ppn);
        return matchMask(setIndexOf(tag), tag) != 0;
    }

    /** Install the block covering `ppn` (after a DRAM CTE fetch). */
    void
    insert(Ppn ppn)
    {
        const std::uint64_t block = blockOf(ppn);
        if (block > simd::maxKey) [[unlikely]]
            blockOutOfRange(ppn);
        const auto tag = static_cast<std::uint32_t>(block);
        const std::size_t set = setIndexOf(tag);
        const std::size_t base = set * wstride_;
        // The historical scalar scan stopped at the first way that
        // matched (refresh) or was invalid (victim), else took the
        // LRU way; the mask math preserves that order.
        std::uint64_t match, inv;
        Probe::eqMask2(&tags_[base], wstride_, tag, simd::invalidKey,
                       match, inv);
        unsigned way;
        if (match | inv) {
            way = simd::firstWay(match | inv);
            if (match & (std::uint64_t{1} << way)) {
                touchRank(set, way);
                return; // already present
            }
        } else {
            way = Probe::rankOldest(&ranks_[set * rstride_], assoc_);
        }
        tags_[base + way] = tag;
        touchRank(set, way);
    }

    /** Invalidate the block covering `ppn` (CTE rewritten in DRAM). */
    void
    invalidate(Ppn ppn)
    {
        const std::uint64_t tag = blockOf(ppn);
        const std::size_t set = setIndexOf(tag);
        std::uint64_t m = matchMask(set, tag);
        while (m) {
            tags_[set * wstride_ + simd::firstWay(m)] = simd::invalidKey;
            m &= m - 1;
        }
    }

    /** Test-only view of one way's metadata (way < associativity). */
    struct WayView
    {
        std::uint64_t tag; //!< CTE block number (meaningful if valid)
        unsigned rank;     //!< recency rank, 0 = most recently used
        bool valid;
    };

    WayView
    wayView(std::size_t set, unsigned way) const
    {
        const std::uint32_t tag = tags_[set * wstride_ + way];
        return WayView{tag, ranks_[set * rstride_ + way],
                       tag != simd::invalidKey};
    }

    std::size_t numSets() const { return sets_; }
    unsigned associativity() const { return assoc_; }
    unsigned pagesPerBlock() const { return pagesPerBlock_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    void dumpStats(StatDump &dump,
                   const std::string &prefix) const override;

  private:
    /** CTE block covering `ppn` (shift when the geometry allows). */
    std::uint64_t
    blockOf(Ppn ppn) const
    {
        return blockPow2_ ? (ppn >> blockShift_) : (ppn / pagesPerBlock_);
    }

    /** Set holding `block` (mask for power-of-two set counts). */
    std::size_t
    setIndexOf(std::uint64_t block) const
    {
        return static_cast<std::size_t>(
            setsPow2_ ? (block & setMask_) : (block % sets_));
    }

    /**
     * Ways of `set` holding CTE block `tag`.  Invalid and padding ways
     * hold the reserved keys above simd::maxKey, and a block past the
     * key range is reported absent before the compare (its low 32 bits
     * could name a resident block).
     */
    std::uint64_t
    matchMask(std::size_t set, std::uint64_t tag) const
    {
        if (tag > simd::maxKey) [[unlikely]]
            return 0;
        return Probe::eqMask(&tags_[set * wstride_], wstride_,
                             static_cast<std::uint32_t>(tag));
    }

    /** Make `way` of `set` the most recently used. */
    void
    touchRank(std::size_t set, unsigned way)
    {
        Probe::rankTouch(&ranks_[set * rstride_], assoc_, way);
    }

    [[noreturn]] void blockOutOfRange(Ppn ppn) const;

    using Probe = simd::Active;

    unsigned pagesPerBlock_;
    bool blockPow2_ = true;
    unsigned blockShift_ = 0;
    std::size_t sets_;
    bool setsPow2_ = true;
    std::uint64_t setMask_ = 0;
    unsigned assoc_;
    unsigned wstride_; //!< assoc_ padded to the u32 vector width
    unsigned rstride_; //!< assoc_ padded to whole 16-byte rank rows

    // Structure-of-arrays way metadata, flattened per set: tags_ is
    // sets_ x wstride_ (invalid ways hold simd::invalidKey, padding
    // ways simd::padKey), ranks_ is sets_ x rstride_ (padding bytes
    // hold simd::padRank).
    std::vector<std::uint32_t> tags_;
    std::vector<std::uint8_t> ranks_;
    Counter hits_, misses_;
};

} // namespace tmcc

#endif // TMCC_MC_CTE_CACHE_HH
