/**
 * @file
 * The hardware page walker plus its per-core page-walk cache (Table III:
 * "1 KB page walk cache per core", similar to [23]).
 *
 * The PWC caches upper-level translations (pointers to L3/L2/L1 tables)
 * keyed by the virtual address prefix, letting a walk skip the top
 * levels.  plan() returns the PTB fetch list the walk must perform; the
 * simulation pipeline turns those into cache/memory accesses (and, under
 * TMCC, into CTE-buffer fills).
 */

#ifndef TMCC_VM_WALKER_HH
#define TMCC_VM_WALKER_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "vm/page_table.hh"

namespace tmcc
{

/** Page-walk cache: small fully-indexed cache of upper-level entries. */
class PageWalkCache : public Stated
{
  public:
    /** 1KB of 8B entries = 128 entries, split across the 3 levels. */
    explicit PageWalkCache(unsigned entries = 128, unsigned assoc = 4);

    /**
     * Look up the table pointed to by the level-`level` PTE covering
     * `vaddr` (level 2..4).  Returns true and sets `table_ppn` on hit.
     */
    bool lookup(unsigned level, Addr vaddr, Ppn &table_ppn);

    void insert(unsigned level, Addr vaddr, Ppn table_ppn);

    void dumpStats(StatDump &dump,
                   const std::string &prefix) const override;

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        Ppn table = 0;
        bool valid = false;
        std::uint64_t lru = 0;
    };

    static std::uint64_t makeKey(unsigned level, Addr vaddr);

    unsigned sets_, assoc_;
    std::vector<Entry> entries_;
    std::uint64_t lruClock_ = 0;
    Counter hits_, misses_;
};

/** A planned page walk: the PTB fetches still required. */
struct WalkPlan
{
    bool valid = false;
    bool huge = false;
    Ppn ppn = 0;                  //!< final data page
    WalkSteps fetches;            //!< PTBs to fetch, root-first
    unsigned pwcHitLevel = 0;      //!< 0 = no PWC hit, else 2..4
};

/** Per-core page walker. */
class Walker : public Stated
{
  public:
    explicit Walker(const PageTable &table);

    /** Plan the walk for `vaddr`, consulting and updating the PWC. */
    WalkPlan plan(Addr vaddr);

    PageWalkCache &pwc() { return pwc_; }

    std::uint64_t walks() const { return walks_.value(); }

    void dumpStats(StatDump &dump,
                   const std::string &prefix) const override;

  private:
    const PageTable &table_;
    PageWalkCache pwc_;
    Counter walks_, stepsFetched_, pwcSkips_;
};

} // namespace tmcc

#endif // TMCC_VM_WALKER_HH
