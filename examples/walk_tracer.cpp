/**
 * @file
 * Page-walk tracer: builds a real 4-level x86-64 page table, performs a
 * walk step by step, and shows exactly what TMCC's hardware sees —
 * which PTBs are fetched, whether each compresses (Fig. 7), which
 * truncated CTEs ride inside, and how a CTE-buffer hit converts the
 * final data access into a speculative parallel DRAM access (Fig. 11).
 * PTB fetches and the data access make the same controller calls as
 * the simulator (walkerFetched fills core 0's CTE buffer; read probes
 * it).
 *
 * Usage: walk_tracer [vaddr-hex] (default 0x40001234)
 */

#include <cstdio>
#include <cstdlib>

#include "tmcc/os_mc.hh"
#include "vm/walker.hh"

using namespace tmcc;

namespace
{

class FlatInfo : public PageInfoProvider
{
  public:
    const PageProfile &
    profile(Ppn) const override
    {
        static const PageProfile p = [] {
            PageProfile q;
            q.blockBytes = 3000;
            q.deflateBytes = 1300;
            q.lzTokens = 1400;
            return q;
        }();
        return p;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const Addr vaddr =
        argc > 1 ? std::strtoull(argv[1], nullptr, 16) : 0x40001234ULL;

    PhysMem phys(1 << 20);
    PageTable table(phys);
    FlatInfo info;
    DramSystem dram(DramConfig{}, InterleaveConfig{});
    OsMcConfig cfg;
    cfg.dramBudgetBytes = 256ULL << 20;
    OsInspiredMc mc(dram, info, phys, cfg);

    // Map a small region around the target.
    PteFlags flags;
    flags.accessed = true;
    flags.dirty = true;
    const Vpn base_vpn = pageNumber(vaddr) & ~7ULL;
    for (Vpn v = base_vpn; v < base_vpn + 8; ++v) {
        const Ppn ppn = phys.allocFrame();
        table.map(v, ppn, flags);
        mc.placePage(ppn);
    }
    // Place the page-table pages too.
    phys.forEachPtPage([&](Ppn ppn, const PtPage &) {
        mc.placePage(ppn);
    });

    std::printf("tracing walk for vaddr 0x%llx\n\n",
                static_cast<unsigned long long>(vaddr));
    std::printf("PTB truncated-CTE geometry: %u-bit CTEs, up to %u per "
                "compressed PTB (§V-A5)\n\n",
                mc.ptbCodec().truncatedCteBits(),
                mc.ptbCodec().maxSlots());

    Walker walker(table);
    const WalkPlan plan = walker.plan(vaddr);
    if (!plan.valid) {
        std::printf("page fault: vaddr not mapped\n");
        return 1;
    }

    for (const WalkStep &step : plan.fetches) {
        std::printf("L%u PTB fetch @ paddr 0x%llx\n", step.level,
                    static_cast<unsigned long long>(step.ptbAddr));
        if (!mc.walkerFetched(0, step.ptbAddr)) {
            std::printf("    PTB not compressible (mixed status "
                        "bits)\n");
            continue;
        }
        std::printf("    PTB compressed; CTEs harvested into the CTE "
                    "buffer:\n");
        const auto view = mc.ptbView(step.ptbAddr);
        for (unsigned i = 0; i < ptesPerPtb; ++i) {
            if (!view.present[i])
                continue;
            std::printf("      slot %u: ppn 0x%llx -> %s 0x%llx\n", i,
                        static_cast<unsigned long long>(view.ppns[i]),
                        view.hasCte[i] ? "cte" : "(no cte)",
                        static_cast<unsigned long long>(view.cte[i]));
        }
    }

    std::printf("\nwalk resolved ppn 0x%llx (%s page)\n",
                static_cast<unsigned long long>(plan.ppn),
                plan.huge ? "2MB" : "4KB");

    // The data access: read() consults core 0's CTE buffer as L2 would
    // and speculates on a hit.  Peek at what it will find.
    if (const auto *e = mc.cteBuffer(0).lookup(plan.ppn);
        e != nullptr && e->hasCte)
        std::printf("CTE buffer hit: data access carries embedded CTE "
                    "0x%llx\n",
                    static_cast<unsigned long long>(e->cte));
    else
        std::printf("CTE buffer miss: data access has no embedded "
                    "CTE\n");

    McReadRequest req;
    req.paddr = (plan.ppn << pageShift) | (vaddr & (pageSize - 1));
    req.when = 1000000;
    const McReadResponse resp = mc.read(req);
    std::printf("MC served the L3 miss in %.1fns: %s\n",
                ticksToNs(resp.complete - req.when),
                resp.cteCacheHit        ? "CTE-cache hit"
                : resp.parallelAccess   ? "parallel speculative access "
                                          "(embedded CTE verified)"
                : resp.embeddedMismatch ? "embedded CTE stale, "
                                          "re-accessed"
                                        : "serial CTE-then-data");
    return 0;
}
