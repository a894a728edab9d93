/**
 * @file
 * The three-level cache hierarchy of Table III: per-core 64KB L1 and
 * 256KB inclusive L2, shared 8MB exclusive L3, with next-line and stride
 * prefetchers at L1/L2.
 *
 * Functional model: the pipeline layers timing on top of the returned
 * hit level.  The hierarchy tracks the per-line compressed bit so the
 * TMCC architecture can keep PTBs compressed on chip (§V-A4), and
 * reports every line that leaves L3 toward memory so the MC architecture
 * can recompress / update metadata.
 *
 * Page-walker accesses enter at L2 (walkers do not allocate into L1;
 * §V-A3/4), and the caller may request that walker fills be stored
 * compressed ("when receiving an uncompressed block from L3, if the
 * requester is the page walker, L2 compresses the block before caching
 * it").
 *
 * The access/fill/prefetch paths are inline member templates over the
 * outcome/sink type.  The simulator instantiates them with the
 * fixed-capacity SmallOutcome / SmallVec sinks, so the whole path
 * inlines without allocation; the constructor rejects any geometry
 * whose worst-case fan-out would overflow those sinks.  Detailed
 * windows and the functional fast-forward between sampled windows
 * both go through these three paths (sim/access_path.hh), so there is
 * one copy of the hierarchy's state updates.
 */

#ifndef TMCC_CACHE_HIERARCHY_HH
#define TMCC_CACHE_HIERARCHY_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/prefetch_bitmap.hh"
#include "cache/prefetcher.hh"
#include "common/small_vec.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace tmcc
{

/** Where an access was satisfied. */
enum class HitLevel
{
    L1,
    L2,
    L3,
    Memory,
};

/** Hierarchy geometry (Table III defaults). */
struct HierarchyConfig
{
    std::size_t l1Bytes = 64 * 1024;
    unsigned l1Assoc = 8;
    std::size_t l2Bytes = 256 * 1024;
    unsigned l2Assoc = 8;
    std::size_t l3Bytes = 8 * 1024 * 1024;
    unsigned l3Assoc = 16;
    bool prefetchers = true;
    unsigned strideDegreeL1 = 2;
    unsigned strideDegreeL2 = 4;
};

/**
 * Result of one access or fill, with inline storage.  One access spills
 * at most one L3 victim per fill plus the prefetch-fill spills (bounded
 * well under 4); prefetch proposals are bounded by next-line (1) +
 * stride degree at L1 and next-line (1) + stride degree at L2, which
 * the Hierarchy constructor checks against the capacity (8 for the
 * Table III degrees 2 + 4).
 */
struct SmallOutcome
{
    HitLevel level = HitLevel::Memory;

    /** Dirty lines evicted from L3 that must be written to memory. */
    SmallVec<CacheLine, 4> memWritebacks;

    /** Prefetch proposals raised by this access (demand path only). */
    SmallVec<Addr, 8> prefetches;
};

/** The full multi-core cache hierarchy. */
class Hierarchy : public Stated
{
  public:
    Hierarchy(const HierarchyConfig &cfg, unsigned cores);

    /**
     * Demand access from `core`.  If the outcome level is Memory, the
     * caller must obtain the block from the MC and then call fillT().
     * `from_walker` starts the access at L2.
     */
    template <class Out>
    Out
    accessT(unsigned core, Addr addr, bool is_write, bool from_walker)
    {
        Out out;
        const Addr block = blockAlign(addr);

        if (from_walker)
            walkerAccesses_.inc();
        else
            demandAccesses_.inc();

        if (consumePrefetched(block)) {
            nextLineL1_[core]->markUseful();
            nextLineL2_[core]->markUseful();
        }

        // L1 (skipped by the page walker).
        if (!from_walker) {
            const bool l1_hit = l1_[core]->access(block, is_write);
            if (cfg_.prefetchers) {
                nextLineL1_[core]->observeT(block, !l1_hit,
                                            out.prefetches);
                strideL1_[core]->observeT(block, !l1_hit,
                                          out.prefetches);
            }
            if (l1_hit) {
                out.level = HitLevel::L1;
                return out;
            }
        }

        // L2.
        const bool l2_hit =
            l2_[core]->access(block, is_write && from_walker);
        if (cfg_.prefetchers && !from_walker) {
            nextLineL2_[core]->observeT(block, !l2_hit, out.prefetches);
            strideL2_[core]->observeT(block, !l2_hit, out.prefetches);
        }
        if (l2_hit) {
            out.level = HitLevel::L2;
            if (!from_walker)
                fillL1(core, CacheLine{block, is_write, false});
            return out;
        }

        // L3 (exclusive: hits are extracted and promoted to L2/L1).
        if (auto line = l3_->extract(block); line.has_value()) {
            out.level = HitLevel::L3;
            CacheLine promoted = *line;
            promoted.dirty |= is_write && from_walker;
            fillL2T(core, promoted, out.memWritebacks);
            if (!from_walker)
                fillL1(core, CacheLine{block, is_write, false});
            return out;
        }

        l3Misses_.inc();
        out.level = HitLevel::Memory;
        return out;
    }

    /**
     * Install a block fetched from memory.  `compressed` is the on-chip
     * encoding flag (PTB-compressed lines under TMCC).  Exclusive L3 is
     * bypassed on fills.
     */
    template <class Out>
    Out
    fillT(unsigned core, Addr addr, bool is_write, bool compressed,
          bool from_walker)
    {
        Out out;
        out.level = HitLevel::Memory;
        const Addr block = blockAlign(addr);

        CacheLine line{block, is_write && from_walker, compressed};
        fillL2T(core, line, out.memWritebacks);
        if (!from_walker)
            fillL1(core, CacheLine{block, is_write, false});
        return out;
    }

    /**
     * Handle one prefetch proposal: looks up L2/L3 and fills L1/L2.
     * Returns true when the block must be fetched from memory (the
     * caller then issues a background MC read and calls fillT()).
     * Writebacks caused by prefetch fills land in `out`.
     */
    template <class Sink>
    bool
    prefetchLookupT(unsigned core, Addr addr, Sink &out)
    {
        const Addr block = blockAlign(addr);
        if (l1_[core]->probe(block) || l2_[core]->probe(block))
            return false;

        notePrefetched(block);
        if (auto line = l3_->extract(block); line.has_value()) {
            fillL2T(core, *line, out);
            return false;
        }
        return true; // caller fetches from memory, then calls fill()
    }

    /** Mark the resident L2 copy dirty (lazy PTB CTE update, §V-A3). */
    void touchL2Dirty(unsigned core, Addr addr);

    Cache &l1(unsigned core) { return *l1_[core]; }
    Cache &l2(unsigned core) { return *l2_[core]; }
    Cache &l3() { return *l3_; }
    const Cache &l3() const { return *l3_; }
    unsigned cores() const { return static_cast<unsigned>(l1_.size()); }

    void dumpStats(StatDump &dump,
                   const std::string &prefix) const override;

  private:
    /** Insert into L1, folding the victim's dirtiness into L2. */
    void
    fillL1(unsigned core, const CacheLine &line)
    {
        // Software-visible L1 copies are always decompressed (§V-A4).
        CacheLine l1_line = line;
        l1_line.compressed = false;
        const auto victim = l1_[core]->insert(l1_line);
        if (victim && victim->dirty) {
            // L2 is inclusive of L1: the victim's data lives in L2;
            // fold the dirtiness down.
            l2_[core]->markDirty(victim->addr);
        }
    }

    /** Insert into L2; victims spill into L3; L3 victims to memory. */
    template <class Sink>
    void
    fillL2T(unsigned core, const CacheLine &line, Sink &writebacks)
    {
        auto victim = l2_[core]->insert(line);
        if (!victim)
            return;

        // Inclusive L2: back-invalidate the L1 copy, folding its
        // dirtiness into the departing line.
        const auto l1_copy = l1_[core]->extract(victim->addr);
        if (l1_copy && l1_copy->dirty)
            victim->dirty = true;

        // Snoop filter: if another core's L2 still holds the line, the
        // exclusive L3 must not take a second copy; fold the dirtiness
        // into the surviving copy instead.
        for (unsigned other = 0; other < l2_.size(); ++other) {
            if (other == core)
                continue;
            if (l2_[other]->probe(victim->addr)) {
                if (victim->dirty)
                    l2_[other]->markDirty(victim->addr);
                return;
            }
        }

        // Exclusive L3 receives L2 victims.
        const auto l3_victim = l3_->insert(*victim);
        if (l3_victim && l3_victim->dirty)
            writebacks.push_back(*l3_victim);
    }

    void
    notePrefetched(Addr addr)
    {
        if (prefetched_.size() > 64 * 1024)
            prefetched_.clear(); // bounded bookkeeping
        prefetched_.note(blockNumber(addr));
    }

    bool
    consumePrefetched(Addr addr)
    {
        return prefetched_.consume(blockNumber(addr));
    }

    HierarchyConfig cfg_;
    std::vector<std::unique_ptr<Cache>> l1_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::unique_ptr<Cache> l3_;

    std::vector<std::unique_ptr<NextLinePrefetcher>> nextLineL1_;
    std::vector<std::unique_ptr<StridePrefetcher>> strideL1_;
    std::vector<std::unique_ptr<NextLinePrefetcher>> nextLineL2_;
    std::vector<std::unique_ptr<StridePrefetcher>> strideL2_;

    /** Outstanding prefetched blocks awaiting first demand use. */
    PrefetchBitmap prefetched_;

    Counter demandAccesses_, walkerAccesses_, l3Misses_;
};

} // namespace tmcc

#endif // TMCC_CACHE_HIERARCHY_HH
