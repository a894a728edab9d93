/**
 * @file
 * Workload engines: the interface between the benchmark analogues and
 * the simulation driver.
 *
 * An engine emits a stream of virtual-memory accesses with think times;
 * it also declares its virtual regions, each with a content family so
 * the driver can attach compressibility profiles to the pages (§VI's
 * "fetch all of the benchmark's memory values to place, compress, and
 * pack them").
 */

#ifndef TMCC_WORKLOADS_WORKLOAD_HH
#define TMCC_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "workloads/content.hh"

namespace tmcc
{

/** One memory reference from a core. */
struct MemAccess
{
    Addr vaddr = 0;
    bool isWrite = false;
    unsigned thinkCycles = 4; //!< CPU work before this access issues
};

/** A virtual region of a workload's address space. */
struct WlRegion
{
    std::string name;
    Addr base = 0;
    std::uint64_t bytes = 0;
    ContentSpec content;
};

/** Abstract workload engine (one per core). */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const std::string &name() const = 0;

    /** The regions this engine touches (shared engines report all). */
    virtual const std::vector<WlRegion> &regions() const = 0;

    /** Produce the next access. */
    virtual MemAccess next() = 0;

    /**
     * Produce the next `n` accesses into `out` (the access rings'
     * refill) by draining next(), so every engine keeps one canonical
     * stream.
     */
    void
    nextBatch(MemAccess *out, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = next();
    }

    std::uint64_t
    footprintBytes() const
    {
        std::uint64_t total = 0;
        for (const auto &r : regions())
            total += r.bytes;
        return total;
    }
};

/** Names of the paper's large/irregular workload set (Fig. 1/17). */
const std::vector<std::string> &largeWorkloadNames();

/** Names of the small/regular set (§VII sensitivity). */
const std::vector<std::string> &smallWorkloadNames();

/** Names of the bandwidth-intensive set (Fig. 22). */
const std::vector<std::string> &bandwidthWorkloadNames();

/** Inert: no engine reads it; perfbench/perfbench.cc is its only user. */
struct TenantKnobs
{
    unsigned tenants = 6;
    double churn = 0.001;
    double zipf = 1.1;
};

/**
 * Instantiate the engine for `name` on core `core` of `cores`.
 * `scale` scales the footprint (1.0 = this repo's default scaled-down
 * footprints; the paper's full footprints would be ~100-200x).  The
 * unnamed TenantKnobs parameter is inert: perfbench/perfbench.cc is
 * its only user.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       unsigned core, unsigned cores,
                                       double scale = 1.0,
                                       std::uint64_t seed = 1,
                                       const TenantKnobs & = {});

} // namespace tmcc

#endif // TMCC_WORKLOADS_WORKLOAD_HH
