/**
 * @file
 * Probe-engine microbenchmark: the SIMD set-probe engine structure by
 * structure — ns/probe through each cache level's geometry, the CTE
 * cache and the TLB, on both the hit path (resident probe + LRU
 * refresh) and the miss path (whole-set compare that finds nothing) —
 * plus the per-core CTE buffer's PTB harvest and lookup.
 *
 * Each figure is the fastest of several timed repetitions.
 *
 * Not a paper figure.  The metrics live under the reserved `host.` key
 * namespace: machine-dependent trends, not exact-match numbers —
 * scripts/bench_diff.py classifies them accordingly.
 */

#include "bench/bench_util.hh"

#include <algorithm>
#include <limits>

#include "cache/cache.hh"
#include "mc/cte_cache.hh"
#include "tmcc/cte_buffer.hh"
#include "vm/tlb.hh"

using namespace tmcc;
using namespace tmcc::bench;

namespace
{

volatile std::uint64_t g_probe_sink;

/** Cheap per-iteration address scrambler (xorshift64). */
struct Scramble
{
    std::uint64_t s = 0x9e3779b97f4a7c15ULL;

    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
};

/**
 * Index mask for `n` probe targets.  Every count here is a power of two
 * so the timed loop picks its target with an AND, not a 64-bit divide
 * that would cost more than the probe it times.
 */
std::uint64_t
indexMask(std::uint64_t n)
{
    panicIf(n == 0 || (n & (n - 1)) != 0,
            "probe count " + std::to_string(n) +
                " is not a power of two");
    return n - 1;
}

/**
 * Timed repetitions per probe.  The fastest one is reported: host load
 * only ever adds time, so the minimum is the steadiest estimate and
 * resolves probe changes of 1-2 ns that a single timing cannot.
 */
constexpr unsigned repetitions = 7;

template <class Fn>
double
nsPerOp(std::uint64_t iters, Fn &&fn)
{
    std::uint64_t sink = 0;
    double best = std::numeric_limits<double>::infinity();
    for (unsigned r = 0; r < repetitions; ++r) {
        Scramble rng;
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < iters; ++i)
            sink += fn(rng.next());
        best = std::min(best, std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
    }
    g_probe_sink = sink;
    return best * 1e9 / static_cast<double>(iters);
}

/**
 * ns/probe through one cache geometry: fill every way, then time
 * resident accesses (hit path) and accesses one capacity beyond
 * (miss path, pure whole-set compare).
 */
void
probeCache(BenchReport &report, const char *tag, std::size_t bytes,
           unsigned assoc, std::uint64_t iters)
{
    Cache c(tag, bytes, assoc);
    const std::uint64_t blocks = bytes / blockSize;
    const std::uint64_t mask = indexMask(blocks);
    for (std::uint64_t b = 0; b < blocks; ++b)
        c.insert({b * blockSize, false, false});
    const double hit = nsPerOp(iters, [&](std::uint64_t r) {
        return c.access((r & mask) * blockSize, false) ? 1 : 0;
    });
    const double miss = nsPerOp(iters, [&](std::uint64_t r) {
        return c.access((blocks + (r & mask)) * blockSize, false) ? 1
                                                                  : 0;
    });
    std::printf("%-14s %8.1f %8.1f\n", tag, hit, miss);
    report.metric(std::string("host.probe.") + tag + ".hit_ns", hit);
    report.metric(std::string("host.probe.") + tag + ".miss_ns", miss);
}

void
probeStructures(BenchReport &report, std::uint64_t iters)
{
    std::printf("\nper-structure probe engine (ns/probe, %s)\n",
                simd::Active::name);
    std::printf("%-14s %8s %8s\n", "structure", "hit", "miss");

    // Table III geometries (cache/hierarchy.hh defaults).
    probeCache(report, "l1", 64 * 1024, 8, iters);
    probeCache(report, "l2", 256 * 1024, 8, iters);
    probeCache(report, "l3", 8 * 1024 * 1024, 16, iters);

    {
        CteCache cte(64 * 1024, 8, 8);
        const std::uint64_t pages =
            cte.numSets() * cte.associativity() * cte.pagesPerBlock();
        const std::uint64_t mask = indexMask(pages);
        for (std::uint64_t p = 0; p < pages; p += cte.pagesPerBlock())
            cte.insert(p);
        const double hit = nsPerOp(iters, [&](std::uint64_t r) {
            return cte.lookup(r & mask) ? 1 : 0;
        });
        const double miss = nsPerOp(iters, [&](std::uint64_t r) {
            return cte.lookup(pages + (r & mask)) ? 1 : 0;
        });
        std::printf("%-14s %8.1f %8.1f\n", "cte", hit, miss);
        report.metric("host.probe.cte.hit_ns", hit);
        report.metric("host.probe.cte.miss_ns", miss);
    }
    {
        Tlb tlb(2048, 8);
        const std::uint64_t vpns = 2048;
        const std::uint64_t mask = indexMask(vpns);
        for (std::uint64_t v = 0; v < vpns; ++v)
            tlb.insert(v, v);
        Ppn ppn = 0;
        const double hit = nsPerOp(iters, [&](std::uint64_t r) {
            return tlb.lookup((r & mask) * pageSize, ppn) ? 1 : 0;
        });
        const double miss = nsPerOp(iters, [&](std::uint64_t r) {
            return tlb.lookup((vpns + (r & mask)) * pageSize, ppn) ? 1
                                                                   : 0;
        });
        std::printf("%-14s %8.1f %8.1f\n", "tlb", hit, miss);
        report.metric("host.probe.tlb.hit_ns", hit);
        report.metric("host.probe.tlb.miss_ns", miss);
    }
}

/**
 * The CTE buffer on the walker's side: ns per PTB harvest (eight
 * inserts of one PTB's adjacent PPNs into a full 64-entry buffer, as
 * every compressed-PTB fetch does) and ns per lookup of a resident PPN
 * (as every demand LLC miss does).
 */
void
probeCteBuffer(BenchReport &report, std::uint64_t iters)
{
    constexpr unsigned entries = 64;
    constexpr std::uint64_t ptbs = 1 << 14;  // PTBs the harvest cycles
    constexpr std::uint64_t ptbStride = 512; // one leaf table apart
    const std::uint64_t mask = indexMask(ptbs);
    auto fill = [&](CteBuffer &buf) {
        // Cover the highest PPN first, so no timed insert grows a table.
        buf.insert(ptbs * ptbStride, false, 0, 0);
        for (Ppn p = 0; p < entries; ++p)
            buf.insert((p / ptesPerPtb) * ptbStride + p % ptesPerPtb,
                       true, p, 0);
    };

    CteBuffer harvested(entries);
    fill(harvested);
    const double harvest = nsPerOp(iters, [&](std::uint64_t r) {
        const Ppn first = (r & mask) * ptbStride;
        for (unsigned i = 0; i < ptesPerPtb; ++i)
            harvested.insert(first + i, true, i, first);
        return 1;
    });

    CteBuffer looked_up(entries);
    fill(looked_up);
    const double lookup = nsPerOp(iters, [&](std::uint64_t r) {
        const std::uint64_t p = r & (entries - 1);
        const CteBuffer::Entry *e = looked_up.lookup(
            (p / ptesPerPtb) * ptbStride + p % ptesPerPtb);
        return e != nullptr ? e->cte : 0;
    });

    std::printf("%-14s %8.1f %8.1f  (harvest of 8 / lookup)\n",
                "cte_buffer", harvest, lookup);
    report.metric("host.probe.cte_buffer.harvest_ns", harvest);
    report.metric("host.probe.cte_buffer.lookup_ns", lookup);
}

} // namespace

int
main()
{
    BenchReport report("kernel_micro");
    header("Probe-engine micro: ns per set probe, structure by structure",
           "host-dependent trends only; ns/probe, fastest of 7 "
           "repetitions");
    const std::uint64_t iters = quickEnabled() ? 300'000 : 3'000'000;
    probeStructures(report, iters);
    probeCteBuffer(report, iters);
    return 0;
}
