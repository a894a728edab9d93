/**
 * @file
 * The simulated access path: the full per-access pipeline — TLB, page
 * walk (native or 2D nested), cache hierarchy, MC architecture and
 * prefetch issue — in one engine.  Everything architecture-specific
 * happens behind the MemController hooks it calls.
 *
 * AccessEngine<Tracing, Functional> calls the hierarchy's inline member
 * templates with fixed-capacity SmallVec sinks, so an access allocates
 * nothing.  Both parameters are compile-time switches:
 *
 *  - Tracing: with it false the trace hooks compile away entirely;
 *    System selects the Tracing=true instantiation only while a Tracer
 *    is active.  Both instantiations execute the same simulator
 *    statements in the same order, so tracing never perturbs a run
 *    (tests/sim/golden_fingerprint_test.cc pins the traced run to the
 *    untraced digest).
 *  - Functional: the fast-forward between sampled windows.  Memory
 *    fetches call MemController::functionalTouch in place of read;
 *    writebacks to the MC, the walker's PTB harvest (walkerFetched) and
 *    the core-timing tail are skipped.  Every other state update — TLB,
 *    walk, L1/L2/L3 access and fill, prefetch, accessed/dirty bits —
 *    runs the same statements as the detailed path, so fast-forward
 *    warms caches and TLBs exactly as a detailed warm-up would
 *    (tests/sim/fast_forward_test.cc).
 */

#ifndef TMCC_SIM_ACCESS_PATH_HH
#define TMCC_SIM_ACCESS_PATH_HH

#include <algorithm>

#include "common/trace.hh"
#include "sim/system.hh"

namespace tmcc
{

template <bool Tracing, bool Functional>
struct AccessEngine
{
    static void
    handleMcResponse(System &sys, unsigned core,
                     const McReadResponse &resp, bool after_tlb_miss,
                     bool measuring)
    {
        // The MC lazily patched a stale PTB's embedded CTE (§V-A3): the
        // PTB's line in L2 is now dirty.
        if (resp.stalePtb != invalidAddr)
            sys.hierarchy_->touchL2Dirty(core, resp.stalePtb);

        if constexpr (Tracing) {
            if (sys.mc_->hasCtes() && !resp.cteCacheHit) {
                if (Tracer *tr = Tracer::active())
                    tr->instant("cte_miss", "mc", core,
                                ticksToNs(resp.complete));
            }
        }

        if (!measuring)
            return;
        ++sys.result_.llcMisses;
        if (sys.mc_->hasCtes()) {
            if (resp.cteCacheHit)
                ++sys.result_.cteHits;
            else
                ++sys.result_.cteMisses;
            if (!resp.cteCacheHit && after_tlb_miss)
                ++sys.result_.cteMissesAfterTlbMiss;
        }
        if (resp.hitMl2) {
            ++sys.result_.ml2Accesses;
        } else {
            if (resp.cteCacheHit)
                ++sys.result_.ml1CteHit;
            else if (resp.parallelAccess)
                ++sys.result_.ml1Parallel;
            else if (resp.embeddedMismatch)
                ++sys.result_.ml1Mismatch;
            else
                ++sys.result_.ml1Serial;
        }
    }

    /**
     * Hand dirty L3 victims to the MC, counting them as LLC writebacks
     * when `count`.  Fast-forward drops them: it has no timing to bill
     * them to.
     */
    template <class Lines>
    static void
    writeback(System &sys, const Lines &wbs, Tick when, bool count)
    {
        if constexpr (!Functional) {
            for (const CacheLine &wb : wbs) {
                sys.mc_->writeback(wb.addr, when, wb.compressed);
                if (count)
                    ++sys.result_.llcWritebacks;
            }
        }
    }

    static Tick
    memoryAccess(System &sys, unsigned core, Addr paddr, bool is_write,
                 bool from_walker, Tick start, bool after_tlb_miss,
                 bool measuring)
    {
        const SmallOutcome out =
            sys.hierarchy_->accessT<SmallOutcome>(core, paddr, is_write,
                                                  from_walker);

        const Tick l1 = sys.cfg_.l1Cycles * sys.cpuPeriod_;
        const Tick l2 = sys.cfg_.l2Cycles * sys.cpuPeriod_;
        const Tick l3 = sys.cfg_.l3Cycles * sys.cpuPeriod_;
        const Tick noc = nsToTicks(sys.cfg_.nocToMcNs);

        Tick done = start;
        switch (out.level) {
          case HitLevel::L1:
            done = start + l1;
            break;
          case HitLevel::L2:
            done = start + l1 + l2;
            break;
          case HitLevel::L3:
            done = start + l1 + l2 + l3;
            break;
          case HitLevel::Memory: {
            McReadRequest req;
            req.core = core;
            req.paddr = paddr;
            req.when = start + l1 + l2 + l3 + noc;
            req.fromWalker = from_walker;
            if constexpr (Functional) {
                sys.mc_->functionalTouch(pageNumber(paddr), is_write,
                                         req.when);
                sys.hierarchy_->fillT<SmallOutcome>(core, paddr, is_write,
                                                    false, from_walker);
                break;
            }
            const McReadResponse resp = sys.mc_->read(req);
            // Fig. 18 convention: the 53ns no-compression miss latency
            // is one NoC traversal plus the DRAM access; the return
            // path is folded into the DRAM/NoC figure.
            done = resp.complete;
            const Tick miss_start = start + l1 + l2 + l3;
            if (measuring) {
                const double lat_ns = ticksToNs(done - miss_start);
                sys.result_.l3MissLatency.sample(lat_ns);
                if (resp.hitMl2)
                    sys.result_.ml2FaultLatency.sample(lat_ns);
            }
            if constexpr (Tracing) {
                if (Tracer *tr = Tracer::active())
                    tr->complete("llc_miss", "mem", core,
                                 ticksToNs(miss_start),
                                 ticksToNs(done - miss_start));
            }

            handleMcResponse(sys, core, resp, after_tlb_miss, measuring);

            const SmallOutcome fill =
                sys.hierarchy_->fillT<SmallOutcome>(
                    core, paddr, is_write, resp.fillCompressedPtb,
                    from_walker);
            writeback(sys, fill.memWritebacks, done, measuring);
            break;
          }
        }

        // Writebacks surfaced by promotions/evictions on the hit path.
        writeback(sys, out.memWritebacks, done, measuring);

        // Walker fetch of a PTB: the MC may harvest its embedded CTEs
        // and have L2 mark the line as a compressed PTB.
        if constexpr (!Functional) {
            if (from_walker &&
                sys.mc_->walkerFetched(core, blockAlign(paddr)))
                sys.hierarchy_->l2(core).setCompressed(blockAlign(paddr),
                                                       true);
        }

        // Prefetch proposals: background fills that stay in the page.
        for (Addr pf : out.prefetches) {
            if (pageNumber(pf) != pageNumber(paddr))
                continue;
            SmallVec<CacheLine, 4> wbs;
            if (sys.hierarchy_->prefetchLookupT(core, pf, wbs)) {
                McReadRequest req;
                req.core = core;
                req.paddr = pf;
                req.when = start + l1 + l2 + l3 + noc;
                req.background = true;
                Tick complete = req.when;
                if constexpr (Functional) {
                    sys.mc_->functionalTouch(pageNumber(pf), false,
                                             req.when);
                } else {
                    const McReadResponse resp = sys.mc_->read(req);
                    handleMcResponse(sys, core, resp, false, false);
                    complete = resp.complete;
                }
                const SmallOutcome fill =
                    sys.hierarchy_->fillT<SmallOutcome>(core, pf, false,
                                                        false, false);
                writeback(sys, fill.memWritebacks, complete, false);
            }
            writeback(sys, wbs, done, false);
        }

        return done;
    }

    static Addr
    hostTranslate(System &sys, unsigned core, Addr gpa, Tick &t,
                  bool measuring)
    {
        // A constituent host walk of the 2D walk (Fig. 12b): fetch the
        // host PTBs through the hierarchy; host PTBs are real PT pages,
        // so TMCC's embedded CTEs accelerate these fetches like any
        // walk.
        const WalkPlan plan = sys.hostWalkers_[core]->plan(gpa);
        panicIf(!plan.valid, "host page fault in nested walk");
        for (const WalkStep &step : plan.fetches)
            t = memoryAccess(sys, core, step.ptbAddr, false, true, t,
                             true, measuring);
        return (plan.ppn << pageShift) | (gpa & (pageSize - 1));
    }

    static Tick
    pageWalk(System &sys, unsigned core, Addr vaddr, Tick start,
             Ppn &ppn, bool measuring)
    {
        const WalkPlan plan = sys.walkers_[core]->plan(vaddr);
        panicIf(!plan.valid,
                "page fault: unmapped address in workload");

        Tick t = start + sys.cpuPeriod_; // walker dispatch
        if (sys.cfg_.nestedPaging) {
            // 2D walk: every guest PTB address is guest-physical and
            // must itself be host-translated before the fetch.
            for (const WalkStep &step : plan.fetches) {
                const Addr host_ptb = hostTranslate(
                    sys, core, step.ptbAddr, t, measuring);
                t = memoryAccess(sys, core, host_ptb, false, true, t,
                                 true, measuring);
            }
            // Final guest ppn -> host frame for the data access.
            const Addr host_data = hostTranslate(
                sys, core, plan.ppn << pageShift, t, measuring);
            ppn = pageNumber(host_data);
            sys.tlbs_[core]->insert(pageNumber(vaddr), ppn);
            return t;
        }
        for (const WalkStep &step : plan.fetches)
            t = memoryAccess(sys, core, step.ptbAddr, false, true, t,
                             true, measuring);

        ppn = plan.ppn;
        if (plan.huge) {
            const Ppn base =
                plan.ppn & ~((hugePageSize / pageSize) - 1);
            sys.tlbs_[core]->insertHuge(
                pageNumber(vaddr) & ~((hugePageSize / pageSize) - 1),
                base);
        } else {
            sys.tlbs_[core]->insert(pageNumber(vaddr), plan.ppn);
        }
        return t;
    }

    static void
    step(System &sys, unsigned core, const MemAccess &a, bool measuring)
    {
        System::CoreState &cs = sys.cores_[core];
        Tick t = cs.now + a.thinkCycles * sys.cpuPeriod_;

        Ppn ppn = 0;
        bool tlb_miss = false;
        if (!sys.tlbs_[core]->lookup(a.vaddr, ppn)) {
            tlb_miss = true;
            if (measuring)
                ++sys.result_.tlbMisses;
            const Tick walk_start = t;
            t = pageWalk(sys, core, a.vaddr, t, ppn, measuring);
            if (measuring)
                sys.result_.pageWalkLatency.sample(
                    ticksToNs(t - walk_start));
            if constexpr (Tracing) {
                if (Tracer *tr = Tracer::active())
                    tr->complete("page_walk", "vm", core,
                                 ticksToNs(walk_start),
                                 ticksToNs(t - walk_start));
            }
            sys.pageTable_->setAccessedDirty(a.vaddr, a.isWrite);
        } else if (measuring) {
            ++sys.result_.tlbHits;
        }

        const Addr paddr =
            (ppn << pageShift) | (a.vaddr & (pageSize - 1));
        const Tick done = memoryAccess(sys, core, paddr, a.isWrite,
                                       false, t, tlb_miss, measuring);
        if constexpr (Functional)
            return; // fast-forward keeps no core timing

        // Stores retire through a finite store buffer: the core does
        // not wait for the fill unless every buffer slot is still in
        // flight (which throttles open-loop write streams to what the
        // memory system can absorb).  Loads block (in-order core
        // model).
        const Tick l1 = sys.cfg_.l1Cycles * sys.cpuPeriod_;
        if (a.isWrite) {
            auto slot = std::min_element(cs.storeSlots.begin(),
                                         cs.storeSlots.end());
            const Tick issue = std::max(t, *slot);
            *slot = std::max(done, issue);
            cs.now = issue + l1;
        } else if (done > t + l1) {
            // OoO overlap: part of the beyond-L1 stall is hidden by
            // MLP.
            cs.now = t + l1 +
                     static_cast<Tick>(
                         static_cast<double>(done - t - l1) /
                         sys.cfg_.memOverlapFactor);
        } else {
            cs.now = done;
        }
        ++cs.accesses;
        if (measuring) {
            ++sys.result_.accesses;
            if (a.isWrite)
                ++sys.result_.storeAccesses;
        }
    }
};

} // namespace tmcc

#endif // TMCC_SIM_ACCESS_PATH_HH
