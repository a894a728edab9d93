#include "vm/page_table.hh"

#include "common/log.hh"

namespace tmcc
{

PageTable::PageTable(PhysMem &mem) : mem_(mem)
{
    rootPpn_ = mem_.allocPageTablePage();
}

Ppn
PageTable::tableFor(Addr vaddr, unsigned stop_level)
{
    Ppn table = rootPpn_;
    for (unsigned level = 4; level > stop_level; --level) {
        PtPage &page = mem_.ptPage(table);
        const unsigned idx = pteIndex(vaddr, level);
        if (!ptePresent(page[idx])) {
            const Ppn child = mem_.allocPageTablePage();
            PteFlags f;
            f.accessed = true; // intermediate entries get A set early
            page[idx] = makePte(child, f);
        }
        panicIf(pteHuge(page[idx]),
                "4KB mapping under an existing huge mapping");
        table = ptePpn(page[idx]);
    }
    return table;
}

void
PageTable::map(Vpn vpn, Ppn ppn, const PteFlags &flags)
{
    const Addr vaddr = vpn << pageShift;
    const Ppn leaf_table = tableFor(vaddr, 1);
    PtPage &page = mem_.ptPage(leaf_table);
    page[pteIndex(vaddr, 1)] = makePte(ppn, flags);
}

void
PageTable::mapHuge(Vpn vpn_base, Ppn ppn_base, const PteFlags &flags)
{
    fatalIf((vpn_base & (hugePageSize / pageSize - 1)) != 0 ||
                (ppn_base & (hugePageSize / pageSize - 1)) != 0,
            "huge mapping must be 2MB aligned");
    const Addr vaddr = vpn_base << pageShift;
    const Ppn l2_table = tableFor(vaddr, 2);
    PtPage &page = mem_.ptPage(l2_table);
    PteFlags f = flags;
    f.pageSize = true;
    page[pteIndex(vaddr, 2)] = makePte(ppn_base, f);
}

void
PageTable::unmap(Vpn vpn)
{
    const Addr vaddr = vpn << pageShift;
    Ppn table = rootPpn_;
    for (unsigned level = 4; level > 1; --level) {
        PtPage &page = mem_.ptPage(table);
        const unsigned idx = pteIndex(vaddr, level);
        if (!ptePresent(page[idx]))
            return;
        table = ptePpn(page[idx]);
    }
    PtPage &page = mem_.ptPage(table);
    page[pteIndex(vaddr, 1)] = 0;
}

WalkResult
PageTable::walk(Addr vaddr) const
{
    WalkResult r;
    Ppn table = rootPpn_;
    for (unsigned level = 4; level >= 1; --level) {
        const PtPage &page = mem_.ptPage(table);
        const unsigned idx = pteIndex(vaddr, level);
        const std::uint64_t pte = page[idx];

        WalkStep step;
        step.level = level;
        const Addr table_base = table << pageShift;
        step.pteAddr = table_base + idx * pteSize;
        step.ptbAddr = blockAlign(step.pteAddr);
        step.nextPpn = ptePpn(pte);
        r.steps.push_back(step);

        if (!ptePresent(pte))
            return r; // invalid: r.valid stays false

        if (level == 2 && pteHuge(pte)) {
            r.valid = true;
            r.huge = true;
            r.ppn = ptePpn(pte) +
                    (pageNumber(vaddr) & (hugePageSize / pageSize - 1));
            return r;
        }
        if (level == 1) {
            r.valid = true;
            r.ppn = ptePpn(pte);
            return r;
        }
        table = ptePpn(pte);
    }
    return r;
}

void
PageTable::setAccessedDirty(Addr vaddr, bool dirty)
{
    Ppn table = rootPpn_;
    for (unsigned level = 4; level >= 1; --level) {
        PtPage &page = mem_.ptPage(table);
        const unsigned idx = pteIndex(vaddr, level);
        std::uint64_t &pte = page[idx];
        if (!ptePresent(pte))
            return;
        pte = pteSetAccessed(pte);
        if (level == 1 || (level == 2 && pteHuge(pte))) {
            if (dirty)
                pte = pteSetDirty(pte);
            return;
        }
        table = ptePpn(pte);
    }
}

} // namespace tmcc
