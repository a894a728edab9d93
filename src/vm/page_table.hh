/**
 * @file
 * A 4-level x86-64 page table with real in-memory PTE contents.
 *
 * The table lives in PhysMem page-table pages, so every 64B page table
 * block (PTB) the walker fetches has genuine bit patterns — the substrate
 * for Fig. 6 (status-bit uniformity) and for TMCC's hardware PTB
 * compression.
 */

#ifndef TMCC_VM_PAGE_TABLE_HH
#define TMCC_VM_PAGE_TABLE_HH

#include <cstdint>

#include "common/small_vec.hh"
#include "common/types.hh"
#include "vm/phys_mem.hh"
#include "vm/pte.hh"

namespace tmcc
{

/** One step of a page walk: which PTB block was read at which level. */
struct WalkStep
{
    unsigned level = 0;  //!< 4 = root .. 1 = leaf
    Addr ptbAddr = 0;    //!< physical address of the 64B PTB fetched
    Addr pteAddr = 0;    //!< physical address of the 8B PTE used
    Ppn nextPpn = 0;     //!< PPN the PTE points at (table or data page)
};

/** The PTB fetches of one walk: at most one per level, held inline. */
using WalkSteps = SmallVec<WalkStep, 4>;

/** Result of a full page walk. */
struct WalkResult
{
    bool valid = false;
    bool huge = false;
    Ppn ppn = 0; //!< data page PPN (2MB-aligned base for huge pages)
    WalkSteps steps;
};

/** The per-process 4-level page table. */
class PageTable
{
  public:
    explicit PageTable(PhysMem &mem);

    /** Map a 4KB virtual page. */
    void map(Vpn vpn, Ppn ppn, const PteFlags &flags);

    /** Map a 2MB huge page (vaddr and ppn 2MB-aligned). */
    void mapHuge(Vpn vpn_base, Ppn ppn_base, const PteFlags &flags);

    /** Remove a 4KB mapping (PT pages are not reclaimed). */
    void unmap(Vpn vpn);

    /** Full walk from the root; records every PTB fetched. */
    WalkResult walk(Addr vaddr) const;

    /** Update the leaf PTE's accessed/dirty bits like a real walker. */
    void setAccessedDirty(Addr vaddr, bool dirty);

    /**
     * Iterate every PTB (64B block of 8 PTEs) at a given level that has
     * at least one present entry; `fn(const std::uint64_t *ptes)`.
     * Level 1 PTBs hold leaf PTEs; level 2 PTBs point at level-1 tables.
     */
    template <typename Fn>
    void
    forEachPtb(unsigned level, Fn &&fn) const
    {
        forEachPtbImpl(rootPpn_, 4, level, std::forward<Fn>(fn));
    }

  private:
    template <typename Fn>
    void
    forEachPtbImpl(Ppn table, unsigned table_level, unsigned want_level,
                   Fn &&fn) const
    {
        const PtPage &page = mem_.ptPage(table);
        if (table_level == want_level) {
            for (unsigned b = 0; b < ptesPerTable; b += ptesPerPtb) {
                bool any = false;
                for (unsigned i = 0; i < ptesPerPtb; ++i)
                    any |= ptePresent(page[b + i]);
                if (any)
                    fn(&page[b]);
            }
            return;
        }
        for (unsigned i = 0; i < ptesPerTable; ++i) {
            if (!ptePresent(page[i]) || pteHuge(page[i]))
                continue;
            forEachPtbImpl(ptePpn(page[i]), table_level - 1, want_level,
                           std::forward<Fn>(fn));
        }
    }

    /** Walk to the level-`stop` table for vaddr, allocating as needed. */
    Ppn tableFor(Addr vaddr, unsigned stop_level);

    PhysMem &mem_;
    Ppn rootPpn_;
};

} // namespace tmcc

#endif // TMCC_VM_PAGE_TABLE_HH
