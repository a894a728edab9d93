/**
 * @file
 * GraphBIG-style graph kernel engines over a hash-defined CSR graph.
 *
 * The paper evaluates IBM GraphBIG on an LDBC datagen social graph
 * (heavy-tailed degrees).  Rebuilding a multi-GB CSR in host memory is
 * unnecessary for address-stream fidelity: the graph here is *functional*
 * — degree(u) and neighbor(u, i) are deterministic hash functions with
 * a heavy-tailed hub set — so the engines emit the same kinds of
 * sequential CSR scans and irregular property-array dereferences as the
 * real kernels, at any scale, with O(1) memory.
 */

#ifndef TMCC_WORKLOADS_GRAPH_HH
#define TMCC_WORKLOADS_GRAPH_HH

#include <deque>

#include "common/rng.hh"
#include "workloads/workload.hh"

namespace tmcc
{

/** The nine GraphBIG kernels of Fig. 1/16/17. */
enum class GraphKernel
{
    PageRank,
    GraphColoring,
    ConnectedComponents,
    DegreeCentrality,
    ShortestPath,
    Bfs,
    Dfs,
    KCore,
    TriangleCount,
};

/** Graph shape parameters. */
struct GraphParams
{
    std::uint64_t vertices = 8ULL << 20; //!< 8M vertices
    double avgDegree = 8.0;
    std::uint64_t hubs = 1ULL << 16;     //!< hot high-degree vertex set
    double hubFraction = 0.15;           //!< neighbor refs hitting hubs
    double nearFraction = 0.25;          //!< neighbor refs near u
};

/** One core's engine for one kernel. */
class GraphWorkload : public Workload
{
  public:
    GraphWorkload(GraphKernel kernel, const GraphParams &params,
                  unsigned core, unsigned cores, std::uint64_t seed);

    const std::string &name() const override { return name_; }
    const std::vector<WlRegion> &regions() const override
    {
        return regions_;
    }
    MemAccess next() override;


    /** Functional graph: degree of u (heavy-tailed, capped at 64). */
    unsigned degree(std::uint64_t u) const;

    /** Functional graph: i-th neighbor of u. */
    std::uint64_t neighbor(std::uint64_t u, unsigned i) const;

  private:
    void visitVertex(std::uint64_t u);
    std::uint64_t nextVertex();

    GraphKernel kernel_;
    GraphParams p_;
    std::string name_;
    std::vector<WlRegion> regions_;
    Rng rng_;

    Addr offsetsBase_, edgesBase_, propABase_, propBBase_, visitedBase_;
    std::uint64_t edgeBytesPerVertex_;

    std::uint64_t cursor_;       //!< sequential kernels
    std::uint64_t cursorStart_;
    std::uint64_t cursorEnd_;
    std::deque<std::uint64_t> frontier_; //!< BFS/SSSP queue, DFS stack
    std::deque<MemAccess> pending_;
};

/** Kernel from its benchmark name ("pageRank", "bfs", ...). */
GraphKernel graphKernelByName(const std::string &name);

} // namespace tmcc

#endif // TMCC_WORKLOADS_GRAPH_HH
