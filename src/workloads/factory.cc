/**
 * @file
 * Workload registry: the paper's benchmark names mapped onto engines
 * with footprints scaled ~1/200 of the published Table IV column A
 * (keeping every "large" footprint far above the 8MB TLB reach so the
 * translation behaviour §III depends on is preserved).
 */

#include "workloads/workload.hh"

#include "common/log.hh"
#include "workloads/graph.hh"
#include "workloads/synthetic.hh"
#include "workloads/trace.hh"

namespace tmcc
{

namespace
{

constexpr Addr regionStart = 1ULL << 30;
constexpr Addr regionAlign = 1ULL << 21;

Addr
alignUp(Addr a)
{
    return (a + regionAlign - 1) & ~(regionAlign - 1);
}

/** Build a region list at standard bases. */
std::vector<WlRegion>
makeRegions(std::initializer_list<
            std::tuple<const char *, std::uint64_t, ContentSpec>> parts)
{
    std::vector<WlRegion> out;
    Addr base = regionStart;
    for (const auto &[name, bytes, spec] : parts) {
        WlRegion r;
        r.name = name;
        r.base = base;
        r.bytes = alignUp(bytes);
        r.content = spec;
        out.push_back(r);
        base = alignUp(base + r.bytes);
    }
    return out;
}

constexpr std::uint64_t MiB = 1ULL << 20;

} // namespace

const std::vector<std::string> &
largeWorkloadNames()
{
    static const std::vector<std::string> names = {
        "pageRank", "graphCol", "connComp", "degCentr", "shortestPath",
        "bfs",      "dfs",      "kcore",    "triCount", "mcf",
        "omnetpp",  "canneal",
    };
    return names;
}

const std::vector<std::string> &
smallWorkloadNames()
{
    static const std::vector<std::string> names = {
        "blackscholes", "freqmine", "swaptions", "streamcluster",
        "rocksdb",
    };
    return names;
}

const std::vector<std::string> &
bandwidthWorkloadNames()
{
    static const std::vector<std::string> names = {
        "stream", "hpcg", "spmv", "gups", "spD",
    };
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, unsigned core, unsigned cores,
             double scale, std::uint64_t seed, const TenantKnobs &)
{
    // ---- recorded traces: "trace:<path>" (every core replays) ----
    if (name.rfind("trace:", 0) == 0)
        return std::make_unique<TraceWorkload>(name.substr(6));

    // ---- GraphBIG kernels (shared address space, partitioned) ----
    static const std::vector<std::string> graph_kernels = {
        "pageRank", "graphCol", "connComp", "degCentr", "shortestPath",
        "bfs",      "dfs",      "kcore",    "triCount",
    };
    for (const auto &k : graph_kernels) {
        if (name == k) {
            GraphParams gp;
            gp.vertices = static_cast<std::uint64_t>(
                (8.0 * scale) * (1 << 20));
            return std::make_unique<GraphWorkload>(
                graphKernelByName(name), gp, core, cores, seed);
        }
    }

    const auto scaled = [scale](double mib) {
        return static_cast<std::uint64_t>(mib * scale * MiB);
    };

    SyntheticParams p;
    p.name = name;

    if (name == "mcf") {
        // Network simplex: dependent pointer chasing over node/arc
        // arrays; single-threaded in the paper -> four instances, so
        // each core gets its own address-space slice via the seed.
        p.regions = makeRegions({
            {"nodes", scaled(40), {ContentFamily::FloatArray, 0.3, 3.0}},
            {"arcs", scaled(56), {ContentFamily::KeyValue, 0.35, 2.5}},
        });
        p.sequentialFraction = 0.1;
        p.runBlocks = 4;
        p.chaseDepth = 4;
        p.hotFraction = 0.06; // the active spanning tree + hot arcs
        p.coldP = 0.04;
        p.writeFraction = 0.15;
        p.thinkMean = 3.0;
        // Distinct instances: shift each core's region bases.
        for (auto &r : p.regions)
            r.base += static_cast<Addr>(core) * (1ULL << 36);
    } else if (name == "omnetpp") {
        // Discrete event simulation: heap of event objects, skewed
        // reuse, frequent small writes.
        p.regions = makeRegions({
            {"heap", scaled(56), {ContentFamily::IntArray, 0.6, 1.5}},
            {"queues", scaled(8), {ContentFamily::IntArray, 0.7, 2.0}},
        });
        p.sequentialFraction = 0.12;
        p.runBlocks = 3;
        p.hotFraction = 0.08; // live event/message objects
        p.coldP = 0.03;
        p.writeFraction = 0.3;
        p.thinkMean = 5.0;
        for (auto &r : p.regions)
            r.base += static_cast<Addr>(core) * (1ULL << 36);
    } else if (name == "canneal") {
        // Simulated annealing over a netlist: uniformly random element
        // pairs, read-mostly with swap writes; very irregular.
        p.regions = makeRegions({
            {"netlist", scaled(64),
             {ContentFamily::FloatArray, 0.5, 1.4}},
            {"elements", scaled(16), {ContentFamily::GraphCsr, 0.4, 1.0}},
        });
        p.sequentialFraction = 0.05;
        p.runBlocks = 2;
        p.hotFraction = 0.20; // active netlist neighbourhood
        p.coldP = 0.02;
        p.writeFraction = 0.25;
        p.thinkMean = 2.5;
    } else if (name == "blackscholes") {
        // Dense option arrays, fully streaming: small and regular.
        p.regions = makeRegions({
            {"options", scaled(24), {ContentFamily::FloatArray, 0.6, 3.5}},
            {"results", scaled(8), {ContentFamily::FloatArray, 0.7, 3.5}},
        });
        p.sequentialFraction = 0.9;
        p.runBlocks = 16;
        p.hotFraction = 0.12; // in-flight option batch re-read often
        p.coldP = 0.004;      // options outside the batch barely move
        p.writeFraction = 0.25;
        p.thinkMean = 12.0;
    } else if (name == "freqmine") {
        // FP-growth: tree walk with high reuse of upper nodes.
        p.regions = makeRegions({
            {"fptree", scaled(24), {ContentFamily::PointerHeap, 0.5, 2.0}},
            {"counts", scaled(8), {ContentFamily::IntArray, 0.6, 2.0}},
        });
        p.sequentialFraction = 0.2;
        p.runBlocks = 4;
        p.zipfAlpha = 1.6; // fp-tree walks are root-heavy
        p.writeFraction = 0.2;
        p.thinkMean = 8.0;
    } else if (name == "swaptions") {
        // Small hot arrays, compute-bound.
        p.regions = makeRegions({
            {"paths", scaled(12), {ContentFamily::FloatArray, 0.6, 2.5}},
        });
        p.sequentialFraction = 0.6;
        p.runBlocks = 8;
        p.zipfAlpha = 1.5; // a few hot simulation paths dominate
        p.writeFraction = 0.3;
        p.thinkMean = 16.0;
    } else if (name == "streamcluster") {
        // Streaming points with a small hot centroid set.
        p.regions = makeRegions({
            {"points", scaled(32), {ContentFamily::FloatArray, 0.5, 2.2}},
            {"centroids", scaled(2), {ContentFamily::FloatArray, 0.7, 2.2}},
        });
        p.sequentialFraction = 0.75;
        p.runBlocks = 12;
        p.hotFraction = 0.15; // current chunk + centroids
        p.coldP = 0.015;
        p.writeFraction = 0.1;
        p.thinkMean = 6.0;
    } else if (name == "rocksdb") {
        // Point lookups over a block cache, Zipf keys (Twitter-like),
        // memtable writes.
        p.regions = makeRegions({
            {"blockcache", scaled(48), {ContentFamily::KeyValue, 0.5, 2.5}},
            {"memtable", scaled(8), {ContentFamily::KeyValue, 0.6, 2.5}},
            {"index", scaled(4), {ContentFamily::PointerHeap, 0.6, 2.0}},
        });
        p.sequentialFraction = 0.25;
        p.runBlocks = 6;
        p.zipfAlpha = 0.99;
        p.writeFraction = 0.15;
        p.thinkMean = 7.0;
    } else if (name == "stream") {
        p.regions = makeRegions({
            {"a", scaled(48), {ContentFamily::FloatArray, 0.5, 2.0}},
        });
        p.sequentialFraction = 1.0;
        p.runBlocks = 64;
        p.writeFraction = 0.33;
        p.thinkMean = 1.0;
    } else if (name == "hpcg") {
        // Stencil + sparse matvec: long sequential runs with irregular
        // gather reads.
        p.regions = makeRegions({
            {"matrix", scaled(48), {ContentFamily::FloatArray, 0.4, 2.0}},
            {"vectors", scaled(16), {ContentFamily::FloatArray, 0.5, 2.0}},
        });
        p.sequentialFraction = 0.7;
        p.runBlocks = 24;
        p.writeFraction = 0.2;
        p.thinkMean = 2.0;
    } else if (name == "spmv" || name == "spD") {
        p.regions = makeRegions({
            {"vals", scaled(40), {ContentFamily::FloatArray, 0.4, 2.0}},
            {"cols", scaled(20), {ContentFamily::GraphCsr, 0.4, 2.0}},
            {"x", scaled(8), {ContentFamily::FloatArray, 0.5, 2.0}},
        });
        p.sequentialFraction = 0.6;
        p.runBlocks = 16;
        p.writeFraction = 0.12;
        p.thinkMean = 2.0;
    } else if (name == "gups") {
        p.regions = makeRegions({
            {"table", scaled(64), {ContentFamily::IntArray, 0.3, 1.5}},
        });
        p.sequentialFraction = 0.0;
        p.writeFraction = 0.5;
        p.thinkMean = 1.5;
    } else {
        fatal("unknown workload: " + name);
    }

    return std::make_unique<SyntheticWorkload>(p, core, cores, seed);
}

} // namespace tmcc
