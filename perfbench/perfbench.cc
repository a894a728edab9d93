/**
 * @file
 * Repository benchmark driver: the host time the simulator takes, end
 * to end and layer by layer, on two fixed configurations.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 (end to end) repeats complete simulations -- cold System
 * construction and setup, then the warm and measured windows, as one
 * `tmccsim` invocation runs them -- until S seconds have passed, and
 * reports the median set-up time, the host time per simulated access
 * of the fastest repetition, and the peak resident memory.
 *
 * --trace 1 (per layer) runs one complete simulation for the modelled
 * components' counters, then an outside-in replay (LayerReplay below)
 * that splits host time across the layers of the access path without
 * instrumenting the simulator.
 *
 * `--seed` seeds the workload engines, so the same seed gives the same
 * access streams.  Every run checks its outputs: the headline counters
 * must be self-consistent and identical across repetitions of one seed,
 * and every replayed layer must reproduce the recorded outcomes.  The
 * last line of stdout is the JSON result (perfbench/run.py relays it).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "dram/dram_system.hh"
#include "sim/system.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"
#include "workloads/profile_library.hh"
#include "workloads/workload.hh"

using namespace tmcc;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
fastest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One benchmark workload: a fixed simulator configuration. */
struct Spec
{
    const char *name;
    const char *engine; //!< workload engine (workloads/factory.cc)
    Arch arch;
    std::uint64_t warm, measure; //!< phase lengths, accesses per core
};

// Each workload leans on a different part of the access path:
//   pagerank-tmcc  the paper's headline case: TLB misses, page walks
//                  through compressed PTBs, TMCC's CTE cache.
//   mcf-compresso  the other MC architecture (Compresso's metadata
//                  cache) and 20x the host memory; bypasses every
//                  TMCC-only mechanism.
// Windows are short: the host is shared, and its load varies over
// seconds, so many short repetitions (see endToEnd) give a steadier
// fastest repetition than a few long ones.
const Spec specs[] = {
    {"pagerank-tmcc", "pageRank", Arch::Tmcc, 10'000, 20'000},
    {"mcf-compresso", "mcf", Arch::Compresso, 10'000, 20'000},
};

SimConfig
configFor(const Spec &spec, std::uint64_t seed)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = spec.engine;
    cfg.arch = spec.arch;
    cfg.seed = seed;
    // The kernel every user-facing entry point defaults to.
    cfg.kernel = KernelMode::Batch;
    cfg.warmAccesses = spec.warm;
    cfg.measureAccesses = spec.measure;
    return cfg;
}

/** Headline counters that must repeat exactly for one seed. */
struct Fingerprint
{
    std::uint64_t accesses = 0, elapsed = 0, tlbMisses = 0,
                  llcMisses = 0, llcWritebacks = 0, cteHits = 0,
                  cteMisses = 0, ml2Accesses = 0, dramUsedBytes = 0;

    explicit Fingerprint(const SimResult &r)
        : accesses(r.accesses), elapsed(r.elapsed),
          tlbMisses(r.tlbMisses), llcMisses(r.llcMisses),
          llcWritebacks(r.llcWritebacks), cteHits(r.cteHits),
          cteMisses(r.cteMisses), ml2Accesses(r.ml2Accesses),
          dramUsedBytes(r.dramUsedBytes)
    {}

    bool operator==(const Fingerprint &) const = default;
};

/** Empty when `r` is self-consistent for `cfg`, else the violation. */
std::string
checkResult(const SimConfig &cfg, const SimResult &r)
{
    if (r.accesses < cfg.measureAccesses * cfg.cores)
        return "fewer measured accesses than configured";
    if (r.tlbHits + r.tlbMisses != r.accesses)
        return "TLB hits + misses != accesses";
    if (r.cteHits + r.cteMisses != r.llcMisses)
        return "CTE hits + misses != LLC misses";
    if (r.ml1CteHit + r.ml1Parallel + r.ml1Mismatch + r.ml1Serial +
            r.ml2Accesses !=
        r.llcMisses)
        return "ML1/ML2 access split != LLC misses";
    if (r.elapsed == 0 || r.llcMisses == 0)
        return "no simulated time or no LLC misses";
    if (r.footprintBytes == 0 || r.dramUsedBytes == 0)
        return "no memory footprint or no DRAM in use";
    return {};
}

struct Metric
{
    const char *name;
    double value;
    const char *unit;
};

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
};

void
printResult(const Outcome &o)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                o.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed));
    for (std::size_t i = 0; i < o.metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", o.metrics[i].name, o.metrics[i].value,
                    o.metrics[i].unit);
    std::printf("}}\n");
}

/**
 * Cold System construction and setup, as one `tmccsim` invocation pays
 * it (the process-wide codec measurements included); returns seconds.
 */
double
setUp(const SimConfig &cfg, std::unique_ptr<System> &sys)
{
    ProfileLibrary::clearCache();
    const auto t0 = Clock::now();
    sys = std::make_unique<System>(cfg);
    sys->setup();
    return secondsSince(t0);
}

/** One complete simulation, timed from outside. */
struct Run
{
    SimResult result;
    double setupSeconds = 0.0;
    double measureSeconds = 0.0;
};

Run
simulate(const SimConfig &cfg)
{
    Run run;
    std::unique_ptr<System> sys;
    run.setupSeconds = setUp(cfg, sys);
    const auto t0 = Clock::now();
    run.result = sys->measure();
    run.measureSeconds = secondsSince(t0);
    return run;
}

/** Accesses each core streams through the warm + measured phases. */
double
streamedAccesses(const SimConfig &cfg)
{
    return static_cast<double>(cfg.cores) *
           static_cast<double>(cfg.warmAccesses + cfg.measureAccesses);
}

Outcome
endToEnd(const SimConfig &cfg, double seconds)
{
    constexpr unsigned minRuns = 3;
    std::vector<double> setup_s, ns_per_access;
    Outcome o;
    std::optional<Fingerprint> first;
    const auto start = Clock::now();
    while (o.attempted < minRuns || secondsSince(start) < seconds) {
        const Run run = simulate(cfg);
        ++o.attempted;
        std::string err = checkResult(cfg, run.result);
        const Fingerprint fp(run.result);
        if (!first)
            first = fp;
        else if (err.empty() && !(fp == *first))
            err = "result differs from the first run of this seed";
        if (!err.empty()) {
            ++o.failed;
            std::fprintf(stderr, "run %llu: %s\n",
                         static_cast<unsigned long long>(o.attempted),
                         err.c_str());
        }
        setup_s.push_back(run.setupSeconds);
        ns_per_access.push_back(run.measureSeconds * 1e9 /
                                streamedAccesses(cfg));
        std::printf("run %llu: setup %.3f s, measure %.3f s "
                    "(%.1f ns/access)\n",
                    static_cast<unsigned long long>(o.attempted),
                    run.setupSeconds, run.measureSeconds,
                    ns_per_access.back());
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    // The host is shared and other tenants' load comes in bursts of a
    // few seconds that only ever add time, so the fastest repetition is
    // the steadiest estimate of the simulator's own cost.
    o.metrics = {
        {"ns_per_access", fastest(ns_per_access), "ns"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
    };
    return o;
}

/**
 * The outside-in replay.  record() drives one chunk of accesses through
 * the access path from outside the simulator, calling each layer's
 * public interface -- fresh workload engines, TLBs, page walkers and
 * cache hierarchy, plus the memory controller of a set-up System -- and
 * keeps what every layer boundary received (the recording pass is timed
 * too, as `path`).  The replay*() methods then feed each recorded
 * stream through a second instance of that layer alone and time the
 * whole stream: a fresh instance of each layer the benchmark can build
 * by itself, and for the MC the same controller, later in simulated
 * time.  Recording and replay instances of a fresh layer see the same
 * calls in the same order, so their outcomes must match exactly; that
 * is the replay's correctness check.
 *
 * The mirror leaves out what only System can reach (TMCC's CTE buffer
 * and lazy PTB updates, accessed/dirty bits, the store buffer), so MC
 * requests carry no embedded CTEs; the replay attributes host time, it
 * does not reproduce the simulated results.
 */
class LayerReplay
{
  public:
    explicit LayerReplay(System &sys)
        : sys_(sys), cfg_(sys.config()),
          period_(nsToTicks(1.0 / cfg_.cpuGhz)),
          hier1_(cfg_.hierarchy, cfg_.cores),
          hier2_(cfg_.hierarchy, cfg_.cores),
          dram2_(cfg_.dram, cfg_.interleave), now_(cfg_.cores, 0),
          gen_(cfg_.cores)
    {
        const TenantKnobs tenancy{cfg_.tenants, cfg_.tenantChurn,
                                  cfg_.tenantZipf};
        for (unsigned c = 0; c < cfg_.cores; ++c) {
            workloads_.push_back(makeWorkload(cfg_.workload, c,
                                              cfg_.cores, cfg_.scale,
                                              cfg_.seed, tenancy));
            tlb1_.push_back(std::make_unique<Tlb>(cfg_.tlbEntries));
            tlb2_.push_back(std::make_unique<Tlb>(cfg_.tlbEntries));
            walk1_.push_back(std::make_unique<Walker>(sys.pageTable()));
            walk2_.push_back(std::make_unique<Walker>(sys.pageTable()));
        }
        l1_ = cfg_.l1Cycles * period_;
        l2_ = l1_ + cfg_.l2Cycles * period_;
        l3_ = l2_ + cfg_.l3Cycles * period_;
        toMc_ = l3_ + nsToTicks(cfg_.nocToMcNs);
    }

    /** Host seconds and operations of one layer over one chunk. */
    struct Span
    {
        double seconds = 0.0;
        std::uint64_t ops = 0;
    };

    struct Chunk
    {
        Span workload, path, tlb, walk, cache, mc, dram;
        std::uint64_t mismatches = 0;
    };

    Chunk
    run(std::size_t per_core)
    {
        Chunk ch;
        record(per_core, ch);
        replayTlb(ch);
        replayWalk(ch);
        replayCache(ch);
        replayDram(ch);
        replayMc(ch); // last: it shifts the simulated clocks
        return ch;
    }

  private:
    struct TlbRec
    {
        Addr vaddr;
        Ppn ppn;
        unsigned core;
    };
    struct WalkRec
    {
        Addr vaddr;
        Ppn ppn;
        unsigned core;
        std::size_t fetches;
    };
    struct CacheRec
    {
        Addr paddr;
        unsigned core;
        bool write, walker, compressed;
    };
    struct McRec
    {
        Addr paddr;
        Tick when;
        unsigned core;
        bool writeback, walker, background, compressed;
    };
    using WbSink = SmallVec<CacheLine, 4>;

    void
    record(std::size_t per_core, Chunk &ch)
    {
        tlbRecs_.clear();
        walkRecs_.clear();
        cacheRecs_.clear();
        mcRecs_.clear();
        demandReads_ = prefetchReads_ = 0;

        auto t0 = Clock::now();
        for (unsigned c = 0; c < cfg_.cores; ++c) {
            gen_[c].resize(per_core);
            workloads_[c]->nextBatch(gen_[c].data(), per_core);
        }
        ch.workload = {secondsSince(t0), per_core * cfg_.cores};

        // Interleave cores by local simulated time, as System does.
        std::vector<std::size_t> pos(cfg_.cores, 0);
        t0 = Clock::now();
        for (std::size_t left = per_core * cfg_.cores; left > 0; --left) {
            unsigned next = cfg_.cores;
            for (unsigned c = 0; c < cfg_.cores; ++c)
                if (pos[c] < per_core &&
                    (next == cfg_.cores || now_[c] < now_[next]))
                    next = c;
            step(next, gen_[next][pos[next]++], ch);
        }
        ch.path = {secondsSince(t0), per_core * cfg_.cores};
    }

    void
    step(unsigned core, const MemAccess &a, Chunk &ch)
    {
        Tick t = now_[core] + a.thinkCycles * period_;
        Ppn ppn = 0;
        if (!tlb1_[core]->lookup(a.vaddr, ppn)) {
            const WalkPlan plan = walk1_[core]->plan(a.vaddr);
            if (!plan.valid || plan.huge) {
                ++ch.mismatches;
                return;
            }
            walkRecs_.push_back(
                {a.vaddr, plan.ppn, core, plan.fetches.size()});
            for (const WalkStep &s : plan.fetches)
                t = memoryAccess(core, s.ptbAddr, false, true, t);
            ppn = plan.ppn;
            tlb1_[core]->insert(pageNumber(a.vaddr), ppn);
        }
        tlbRecs_.push_back({a.vaddr, ppn, core});
        const Addr paddr = (ppn << pageShift) | (a.vaddr & (pageSize - 1));
        const Tick done = memoryAccess(core, paddr, a.isWrite, false, t);
        // Loads block; stores retire one L1 hit later.
        now_[core] = a.isWrite ? t + l1_ : done;
    }

    Tick
    memoryAccess(unsigned core, Addr paddr, bool write, bool walker,
                 Tick start)
    {
        const SmallOutcome out = hier1_.accessT<SmallOutcome>(
            core, paddr, write, walker);
        CacheRec rec{paddr, core, write, walker, false};
        Tick done = start;
        switch (out.level) {
          case HitLevel::L1: done += l1_; break;
          case HitLevel::L2: done += l2_; break;
          case HitLevel::L3: done += l3_; break;
          case HitLevel::Memory: {
            const McReadResponse resp =
                readMc(core, paddr, start + toMc_, walker, false);
            ++demandReads_;
            done = resp.complete;
            rec.compressed = resp.fillCompressedPtb;
            writeback(core,
                      hier1_
                          .fillT<SmallOutcome>(core, paddr, write,
                                               resp.fillCompressedPtb,
                                               walker)
                          .memWritebacks,
                      done);
            break;
          }
        }
        cacheRecs_.push_back(rec);
        writeback(core, out.memWritebacks, done);

        for (const Addr pf : out.prefetches) {
            if (pageNumber(pf) != pageNumber(paddr))
                continue;
            WbSink wbs;
            if (hier1_.prefetchLookupT(core, pf, wbs)) {
                const McReadResponse resp =
                    readMc(core, pf, start + toMc_, false, true);
                ++prefetchReads_;
                writeback(core,
                          hier1_
                              .fillT<SmallOutcome>(core, pf, false, false,
                                                   false)
                              .memWritebacks,
                          resp.complete);
            }
            writeback(core, wbs, done);
        }
        return done;
    }

    McReadResponse
    readMc(unsigned core, Addr paddr, Tick when, bool walker,
           bool background)
    {
        McReadRequest req;
        req.core = core;
        req.paddr = paddr;
        req.when = when;
        req.fromWalker = walker;
        req.background = background;
        mcRecs_.push_back(
            {paddr, when, core, false, walker, background, false});
        const McReadResponse resp = sys_.mc().read(req);
        maxTick_ = std::max(maxTick_, resp.complete);
        return resp;
    }

    template <class Lines>
    void
    writeback(unsigned core, const Lines &lines, Tick when)
    {
        for (const CacheLine &wb : lines) {
            mcRecs_.push_back(
                {wb.addr, when, core, true, false, false, wb.compressed});
            sys_.mc().writeback(wb.addr, when, wb.compressed);
        }
    }

    void
    replayTlb(Chunk &ch)
    {
        std::uint64_t misses = 0;
        const auto t0 = Clock::now();
        for (const TlbRec &r : tlbRecs_) {
            Ppn ppn = 0;
            if (!tlb2_[r.core]->lookup(r.vaddr, ppn)) {
                ++misses;
                tlb2_[r.core]->insert(pageNumber(r.vaddr), r.ppn);
            } else if (ppn != r.ppn) {
                ++ch.mismatches;
            }
        }
        ch.tlb = {secondsSince(t0), tlbRecs_.size()};
        if (misses != walkRecs_.size())
            ++ch.mismatches;
    }

    void
    replayWalk(Chunk &ch)
    {
        const auto t0 = Clock::now();
        for (const WalkRec &r : walkRecs_) {
            const WalkPlan plan = walk2_[r.core]->plan(r.vaddr);
            if (!plan.valid || plan.ppn != r.ppn ||
                plan.fetches.size() != r.fetches)
                ++ch.mismatches;
        }
        ch.walk = {secondsSince(t0), walkRecs_.size()};
    }

    void
    replayCache(Chunk &ch)
    {
        std::uint64_t demand = 0, prefetch = 0;
        const auto t0 = Clock::now();
        for (const CacheRec &r : cacheRecs_) {
            const SmallOutcome out = hier2_.accessT<SmallOutcome>(
                r.core, r.paddr, r.write, r.walker);
            if (out.level == HitLevel::Memory) {
                ++demand;
                hier2_.fillT<SmallOutcome>(r.core, r.paddr, r.write,
                                           r.compressed, r.walker);
            }
            for (const Addr pf : out.prefetches) {
                if (pageNumber(pf) != pageNumber(r.paddr))
                    continue;
                WbSink wbs;
                if (hier2_.prefetchLookupT(r.core, pf, wbs)) {
                    ++prefetch;
                    hier2_.fillT<SmallOutcome>(r.core, pf, false, false,
                                               false);
                }
            }
        }
        ch.cache = {secondsSince(t0), cacheRecs_.size()};
        if (demand != demandReads_ || prefetch != prefetchReads_)
            ++ch.mismatches;
    }

    void
    replayDram(Chunk &ch)
    {
        const auto t0 = Clock::now();
        for (const McRec &r : mcRecs_) {
            if (r.writeback)
                dram2_.write(r.paddr, r.when);
            else if (dram2_.read(r.paddr, r.when) < r.when)
                ++ch.mismatches;
        }
        ch.dram = {secondsSince(t0), mcRecs_.size()};
    }

    void
    replayMc(Chunk &ch)
    {
        if (mcRecs_.empty())
            return;
        // Replay the chunk's requests once more after everything the
        // recording issued has completed, keeping simulated time
        // monotone for the controller.
        const Tick shift = maxTick_ + 1 - mcRecs_.front().when;
        const auto t0 = Clock::now();
        for (const McRec &r : mcRecs_) {
            if (r.writeback) {
                sys_.mc().writeback(r.paddr, r.when + shift,
                                    r.compressed);
                continue;
            }
            McReadRequest req;
            req.core = r.core;
            req.paddr = r.paddr;
            req.when = r.when + shift;
            req.fromWalker = r.walker;
            req.background = r.background;
            const McReadResponse resp = sys_.mc().read(req);
            if (resp.complete < req.when)
                ++ch.mismatches;
            maxTick_ = std::max(maxTick_, resp.complete);
        }
        ch.mc = {secondsSince(t0), mcRecs_.size()};
        for (Tick &t : now_)
            t += shift;
    }

    System &sys_;
    const SimConfig &cfg_;
    Tick period_;
    Tick l1_ = 0, l2_ = 0, l3_ = 0, toMc_ = 0;

    std::vector<std::unique_ptr<Workload>> workloads_;
    std::vector<std::unique_ptr<Tlb>> tlb1_, tlb2_;
    std::vector<std::unique_ptr<Walker>> walk1_, walk2_;
    Hierarchy hier1_, hier2_;
    DramSystem dram2_;

    std::vector<Tick> now_;
    Tick maxTick_ = 0;
    std::vector<std::vector<MemAccess>> gen_;

    std::vector<TlbRec> tlbRecs_;
    std::vector<WalkRec> walkRecs_;
    std::vector<CacheRec> cacheRecs_;
    std::vector<McRec> mcRecs_;
    std::uint64_t demandReads_ = 0, prefetchReads_ = 0;
};

double
perKilo(std::uint64_t n, std::uint64_t accesses)
{
    return accesses ? 1000.0 * static_cast<double>(n) /
                          static_cast<double>(accesses)
                    : 0.0;
}

Outcome
perLayer(const SimConfig &cfg, double seconds)
{
    const auto start = Clock::now();
    Outcome o;
    const Run run = simulate(cfg);
    const SimResult &r = run.result;
    ++o.attempted;
    if (const std::string err = checkResult(cfg, r); !err.empty()) {
        ++o.failed;
        std::fprintf(stderr, "simulation: %s\n", err.c_str());
    }

    // The replay starts at simulated time 0, so it needs a System that
    // has been set up but has not run its windows.
    std::unique_ptr<System> sys;
    setUp(cfg, sys);
    LayerReplay replay(*sys);
    using Span = LayerReplay::Span;
    std::vector<double> workload, path, tlb, walk, cache, mc, dram;
    const auto ns = [](std::vector<double> &v, const Span &s) {
        if (s.ops > 0)
            v.push_back(s.seconds * 1e9 / static_cast<double>(s.ops));
    };
    constexpr std::size_t chunkPerCore = 20'000;
    constexpr unsigned minChunks = 5;
    std::uint64_t chunks = 0;
    while (chunks < minChunks || secondsSince(start) < seconds) {
        const LayerReplay::Chunk ch = replay.run(chunkPerCore);
        ++chunks;
        ++o.attempted;
        if (ch.mismatches > 0) {
            ++o.failed;
            std::fprintf(stderr, "replay chunk %llu: %llu mismatches\n",
                         static_cast<unsigned long long>(chunks),
                         static_cast<unsigned long long>(ch.mismatches));
        }
        ns(workload, ch.workload);
        ns(path, ch.path);
        ns(tlb, ch.tlb);
        ns(walk, ch.walk);
        ns(cache, ch.cache);
        ns(mc, ch.mc);
        ns(dram, ch.dram);
    }
    std::printf("replayed %llu chunks of %zu accesses/core\n",
                static_cast<unsigned long long>(chunks), chunkPerCore);

    const double cte_total =
        static_cast<double>(r.cteHits + r.cteMisses);
    // Host ns per operation of each layer, from the fastest chunk (see
    // endToEnd).
    o.metrics = {
        {"path_ns", fastest(path), "ns"},
        {"workload_ns", fastest(workload), "ns"},
        {"tlb_ns", fastest(tlb), "ns"},
        {"walk_ns", fastest(walk), "ns"},
        {"cache_ns", fastest(cache), "ns"},
        {"mc_ns", fastest(mc), "ns"},
        {"dram_ns", fastest(dram), "ns"},
        // The modelled components, from the complete simulation.
        {"sim_tlb_misses_pka", perKilo(r.tlbMisses, r.accesses),
         "1/kacc"},
        {"sim_llc_misses_pka", perKilo(r.llcMisses, r.accesses),
         "1/kacc"},
        {"sim_llc_writebacks_pka", perKilo(r.llcWritebacks, r.accesses),
         "1/kacc"},
        {"sim_ml2_accesses_pka", perKilo(r.ml2Accesses, r.accesses),
         "1/kacc"},
        {"sim_cte_hit_rate",
         cte_total > 0.0 ? static_cast<double>(r.cteHits) / cte_total
                         : 0.0,
         "ratio"},
        {"sim_l3_miss_latency_ns", r.avgL3MissLatencyNs, "ns"},
        {"sim_accesses_per_ns", r.accessesPerNs(), "1/ns"},
    };
    return o;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1\nworkloads:",
                 msg);
    for (const Spec &s : specs)
        std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const char *s)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || *s == '-')
        usage((std::string(flag) + " needs a non-negative integer")
                  .c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    const Spec *spec = nullptr;
    std::uint64_t seed = 0, seconds = 0, trace = 2;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (i + 1 >= argc)
            usage((std::string(flag) + " needs a value").c_str());
        const char *value = argv[++i];
        if (std::strcmp(flag, "--workload") == 0) {
            for (const Spec &s : specs)
                if (std::strcmp(s.name, value) == 0)
                    spec = &s;
            if (spec == nullptr)
                usage((std::string("unknown workload ") + value).c_str());
        } else if (std::strcmp(flag, "--seed") == 0) {
            seed = parseUnsigned(flag, value);
            have_seed = true;
        } else if (std::strcmp(flag, "--seconds") == 0) {
            seconds = parseUnsigned(flag, value);
        } else if (std::strcmp(flag, "--trace") == 0) {
            trace = parseUnsigned(flag, value);
        } else {
            usage((std::string("unknown flag ") + flag).c_str());
        }
    }
    if (spec == nullptr || !have_seed || seconds == 0 || trace > 1)
        usage("--workload, --seed, --seconds (> 0) and --trace (0 or 1) "
              "are required");

    const SimConfig cfg = configFor(*spec, seed);
    std::printf("perfbench: %s (%s on %s), seed %llu, %llu s, "
                "trace %llu\n",
                spec->name, spec->engine, archName(spec->arch),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(seconds),
                static_cast<unsigned long long>(trace));
    const double budget = static_cast<double>(seconds);
    printResult(trace ? perLayer(cfg, budget) : endToEnd(cfg, budget));
    return 0;
}
