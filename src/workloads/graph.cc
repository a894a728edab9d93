#include "workloads/graph.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace tmcc
{

namespace
{

/** Mixing hash for the functional graph. */
std::uint64_t
mix(std::uint64_t a, std::uint64_t b = 0x9e3779b97f4a7c15ULL)
{
    std::uint64_t x = a + b;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

constexpr Addr regionAlign = 1ULL << 21; // 2MB region alignment

Addr
alignUp(Addr a)
{
    return (a + regionAlign - 1) & ~(regionAlign - 1);
}

} // namespace

GraphKernel
graphKernelByName(const std::string &name)
{
    if (name == "pageRank") return GraphKernel::PageRank;
    if (name == "graphCol") return GraphKernel::GraphColoring;
    if (name == "connComp") return GraphKernel::ConnectedComponents;
    if (name == "degCentr") return GraphKernel::DegreeCentrality;
    if (name == "shortestPath") return GraphKernel::ShortestPath;
    if (name == "bfs") return GraphKernel::Bfs;
    if (name == "dfs") return GraphKernel::Dfs;
    if (name == "kcore") return GraphKernel::KCore;
    if (name == "triCount") return GraphKernel::TriangleCount;
    fatal("unknown graph kernel: " + name);
}

GraphWorkload::GraphWorkload(GraphKernel kernel, const GraphParams &params,
                             unsigned core, unsigned cores,
                             std::uint64_t seed)
    : kernel_(kernel), p_(params), rng_(seed * 1000003 + core)
{
    switch (kernel) {
      case GraphKernel::PageRank: name_ = "pageRank"; break;
      case GraphKernel::GraphColoring: name_ = "graphCol"; break;
      case GraphKernel::ConnectedComponents: name_ = "connComp"; break;
      case GraphKernel::DegreeCentrality: name_ = "degCentr"; break;
      case GraphKernel::ShortestPath: name_ = "shortestPath"; break;
      case GraphKernel::Bfs: name_ = "bfs"; break;
      case GraphKernel::Dfs: name_ = "dfs"; break;
      case GraphKernel::KCore: name_ = "kcore"; break;
      case GraphKernel::TriangleCount: name_ = "triCount"; break;
    }

    const std::uint64_t v = p_.vertices;
    edgeBytesPerVertex_ = static_cast<std::uint64_t>(p_.avgDegree * 4.0);

    Addr base = 1ULL << 30; // regions start at 1GB
    auto add_region = [&](const std::string &rname, std::uint64_t bytes,
                          ContentSpec spec) {
        WlRegion r;
        r.name = rname;
        r.base = base;
        r.bytes = alignUp(bytes);
        r.content = spec;
        regions_.push_back(r);
        base = alignUp(base + r.bytes);
        return r.base;
    };

    // Content tuned to Table IV: block-level (Compresso) ~1.27x,
    // page-level Deflate ~3.0x for the GraphBIG set.
    offsetsBase_ = add_region("offsets", 8 * (v + 1),
                              {ContentFamily::IntArray, 0.5, 3.0});
    edgesBase_ = add_region("edges", edgeBytesPerVertex_ * v,
                            {ContentFamily::GraphCsr, 0.7, 4.0});
    propABase_ = add_region("propA", 8 * v,
                            {ContentFamily::FloatArray, 0.6, 3.5});
    propBBase_ = add_region("propB", 8 * v,
                            {ContentFamily::FloatArray, 0.6, 3.5});
    visitedBase_ = add_region("visited", std::max<std::uint64_t>(
                                             v / 8, pageSize),
                              {ContentFamily::IntArray, 0.7, 3.0});

    // Partition the vertex range across cores (multi-threaded kernels).
    cursorStart_ = core * (v / cores);
    cursor_ = cursorStart_;
    cursorEnd_ = (core + 1) * (v / cores);
    if (cursorEnd_ > v || core + 1 == cores)
        cursorEnd_ = v;
}

unsigned
GraphWorkload::degree(std::uint64_t u) const
{
    const std::uint64_t h = mix(u, 0x5bd1e995);
    // Heavy tail: ~2% of vertices are high-degree hubs.
    if (h % 50 == 0)
        return 48 + static_cast<unsigned>(h % 17);
    return 1 + static_cast<unsigned>(
                   h % static_cast<std::uint64_t>(2 * p_.avgDegree));
}

std::uint64_t
GraphWorkload::neighbor(std::uint64_t u, unsigned i) const
{
    const std::uint64_t h = mix(u * 131 + i, 0xabcdef123);
    const double roll =
        static_cast<double>(h % 1000003) / 1000003.0;
    if (roll < p_.hubFraction)
        return mix(h, 17) % p_.hubs; // hot hub set
    if (roll < p_.hubFraction + p_.nearFraction) {
        // Community-local neighbor.
        const std::int64_t delta =
            static_cast<std::int64_t>(h % 8192) - 4096;
        const std::int64_t cand =
            static_cast<std::int64_t>(u) + delta;
        if (cand >= 0 &&
            cand < static_cast<std::int64_t>(p_.vertices))
            return static_cast<std::uint64_t>(cand);
    }
    // Power-law destination: real social-graph edge endpoints follow
    // the degree distribution, so low-id (high-degree) vertices absorb
    // most references -- that page-level skew is what lets ML1 capture
    // the hot mass (§IV).
    const double frac =
        static_cast<double>(h >> 11) * 0x1.0p-53;
    const double skewed = frac * frac * frac * frac;
    return static_cast<std::uint64_t>(
        static_cast<double>(p_.vertices - 1) * skewed);
}

std::uint64_t
GraphWorkload::nextVertex()
{
    switch (kernel_) {
      case GraphKernel::Bfs:
      case GraphKernel::ShortestPath:
        if (!frontier_.empty()) {
            const std::uint64_t u = frontier_.front();
            frontier_.pop_front();
            return u;
        }
        // Restart from a new source; sources follow the same skewed
        // endpoint distribution (traversals start from queried, i.e.
        // popular, vertices).
        return neighbor(rng_.next(), 0);
      case GraphKernel::Dfs:
        if (!frontier_.empty()) {
            const std::uint64_t u = frontier_.back(); // stack
            frontier_.pop_back();
            return u;
        }
        return neighbor(rng_.next(), 0);
      default: {
        const std::uint64_t u = cursor_++;
        if (cursor_ >= cursorEnd_)
            cursor_ = cursorStart_; // next sweep over the partition
        return u;
      }
    }
}

void
GraphWorkload::visitVertex(std::uint64_t u)
{
    // CSR offset lookup (two adjacent 8B entries; one block usually).
    pending_.push_back({offsetsBase_ + 8 * u, false});

    const unsigned d = degree(u);
    const Addr edge_base = edgesBase_ + u * edgeBytesPerVertex_;

    for (unsigned i = 0; i < d; ++i) {
        if (i % 16 == 0) // sequential scan of the adjacency list
            pending_.push_back({edge_base + i * 4, false});

        const std::uint64_t v = neighbor(u, i);
        switch (kernel_) {
          case GraphKernel::PageRank:
            pending_.push_back({propABase_ + 8 * v, false});
            break;
          case GraphKernel::ConnectedComponents:
          case GraphKernel::GraphColoring:
            pending_.push_back({propABase_ + 8 * v, false});
            // Label/color updates happen only when the propagation
            // actually changes the value.
            if (rng_.chance(0.1))
                pending_.push_back({propBBase_ + 8 * v, true});
            break;
          case GraphKernel::DegreeCentrality:
            break; // pure CSR scan: regular
          case GraphKernel::Bfs:
          case GraphKernel::Dfs:
            pending_.push_back({visitedBase_ + v / 8, false});
            if (rng_.chance(0.35)) {
                pending_.push_back({visitedBase_ + v / 8, true});
                if (frontier_.size() < 4096)
                    frontier_.push_back(v);
            }
            break;
          case GraphKernel::ShortestPath:
            pending_.push_back({propABase_ + 8 * v, false});
            if (rng_.chance(0.3)) {
                pending_.push_back({propABase_ + 8 * v, true});
                if (frontier_.size() < 4096)
                    frontier_.push_back(v);
            }
            break;
          case GraphKernel::KCore:
            // Degree decrements only when a neighbor was just removed.
            if (rng_.chance(0.12))
                pending_.push_back({propABase_ + 4 * v, true});
            break;
          case GraphKernel::TriangleCount: {
            // Intersect adj(u) with adj(v).  Triangle counting walks
            // vertices in sorted order and triangles live inside
            // communities, so the intersected lists cluster near u's
            // in id space: high locality, low CTE/TLB miss (Fig. 2).
            const std::uint64_t w =
                std::min<std::uint64_t>(u + 1 + (v % 512),
                                        p_.vertices - 1);
            const unsigned dv = std::min(degree(w), 32u);
            const Addr v_base = edgesBase_ + w * edgeBytesPerVertex_;
            for (unsigned b = 0; b * 16 < dv; ++b)
                pending_.push_back({v_base + b * blockSize, false});
            break;
          }
        }
    }

    // Per-vertex result write.
    switch (kernel_) {
      case GraphKernel::PageRank:
      case GraphKernel::DegreeCentrality:
      case GraphKernel::GraphColoring:
      case GraphKernel::ConnectedComponents:
        pending_.push_back({propBBase_ + 8 * u, true});
        break;
      case GraphKernel::KCore:
        pending_.push_back({propABase_ + 4 * u, false});
        break;
      default:
        break;
    }
}

MemAccess
GraphWorkload::next()
{
    while (pending_.empty())
        visitVertex(nextVertex());
    const MemAccess a = pending_.front();
    pending_.pop_front();
    return a;
}

} // namespace tmcc
