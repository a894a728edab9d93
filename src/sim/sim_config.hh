/**
 * @file
 * Experiment configuration: Table III defaults plus the architecture
 * selector and workload/scale knobs.
 */

#ifndef TMCC_SIM_SIM_CONFIG_HH
#define TMCC_SIM_SIM_CONFIG_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/cli.hh"
#include "common/log.hh"
#include "compresso/compresso_mc.hh"
#include "dram/dram_config.hh"
#include "tmcc/os_mc.hh"

namespace tmcc
{

/** Which MC architecture to simulate. */
enum class Arch
{
    NoCompression,
    Compresso,
    Barebone, //!< OS-inspired without TMCC's two optimizations
    BarebonePlusMl1, //!< barebone + CTE embedding only (Fig. 20 split)
    BarebonePlusMl2, //!< barebone + fast Deflate only (Fig. 20 split)
    Tmcc,     //!< OS-inspired + CTE embedding + fast Deflate
};

const char *archName(Arch arch);

/** The arch named by `--arch` (none|nocomp|compresso|barebone|
 * barebone+ml1|barebone+ml2|tmcc); fails (exit 1) on any other name. */
Arch archByName(const std::string &name);

/** cli::bind's parser for an Arch member. */
inline void
parseFlagValue(const std::string &, const std::string &text, Arch &out)
{
    out = archByName(text);
}

/** Inert: nothing reads it; perfbench/perfbench.cc is its only writer. */
enum class KernelMode : std::uint8_t { Batch };

/** Full experiment description. */
struct SimConfig
{
    std::string workload = "pageRank";
    double scale = 0.5; //!< workload footprint scale (see factory.cc)
    unsigned cores = 4;
    std::uint64_t seed = 1;

    Arch arch = Arch::Tmcc;

    // CPU (Table III): 2.8GHz; cache latencies in CPU cycles.
    double cpuGhz = 2.8;
    unsigned l1Cycles = 3;
    unsigned l2Cycles = 11; //!< additional
    unsigned l3Cycles = 50; //!< additional
    double nocToMcNs = 18.0;

    unsigned tlbEntries = 2048;
    unsigned cteBufferEntries = 64; //!< per-core CTE Buffer (§V-A6)
    bool hugePages = false;

    /**
     * 2D (nested) paging for virtual machines (§V-A3, Fig. 12b): the
     * workload's table becomes a *guest* table in guest-physical
     * space, and every guest PTB fetch plus the final data access is
     * translated through a *host* page table.  TMCC's CTE embedding
     * applies to the host PTBs of every constituent host walk.
     */
    bool nestedPaging = false;

    /**
     * Out-of-order latency overlap: the fraction of a load's
     * beyond-L1 latency the 4-wide OoO core hides via MLP.  1.0 = fully
     * blocking in-order.  Applied uniformly, so it compresses relative
     * gaps the way an OoO core does.
     */
    double memOverlapFactor = 2.0;

    HierarchyConfig hierarchy;
    DramConfig dram;
    InterleaveConfig interleave;

    CompressoConfig compresso;
    OsMcConfig osMc;

    /**
     * DRAM budget for the OS-inspired architectures as a fraction of
     * the workload footprint (Table IV columns); 0 = match Compresso's
     * usage (iso-savings, Fig. 17).
     */
    double dramBudgetFraction = 0.0;

    // Phase lengths (accesses per core).
    std::uint64_t placementAccesses = 400'000;
    std::uint64_t warmAccesses = 300'000;
    std::uint64_t measureAccesses = 500'000;

    /**
     * Epoch statistics: snapshot a delta StatDump every N measured
     * accesses (across all cores) so time-series curves -- ML2 access
     * rate (Fig. 21), CTE hit rate, live DRAM bytes -- can be plotted
     * over the measured window.  0 disables snapshots entirely; the
     * run is then bit-identical to a build without the feature.
     */
    std::uint64_t statsInterval = 0;

    /** Inert: nothing reads it; perfbench/perfbench.cc is its only writer. */
    KernelMode kernel = KernelMode::Batch;

    /**
     * SMARTS-style interval sampling (`--sample k:w[:warm]`): instead
     * of simulating every measured access in detail, run
     * `sampleWindows` detailed windows of `sampleWindowAccesses`
     * accesses per core, each preceded by `sampleWarmAccesses` of
     * detailed warm-up, and functionally fast-forward (translation,
     * cache and ML1/ML2 state updated, no timing) in between.  Headline metrics
     * are then reported as per-window mean + 95% CI in
     * SimResult::sample.  sampleWindows == 0 (default) disables
     * sampling: the run is exact and bit-identical to a build without
     * the feature.
     */
    std::uint64_t sampleWindows = 0;
    std::uint64_t sampleWindowAccesses = 0;
    std::uint64_t sampleWarmAccesses = 0;

    /** Inert: the simulator never reads them; perfbench/perfbench.cc is
     * their only reader. */
    unsigned tenants = 6;
    double tenantChurn = 0.001;
    double tenantZipf = 1.1;

    /**
     * The reach-scaled preset used by the benches: workload footprints
     * are ~1/400 of the paper's, so every capacity-like structure
     * (TLB reach, CTE-cache reach, LLC, free-list watermarks) scales by
     * a similar factor to preserve the reach ratios §III/IV build on:
     *
     *   footprint >> TMCC CTE reach = 4x Compresso CTE reach
     *   Compresso CTE reach ~ TLB reach ~ LLC
     *
     * Timing parameters (latencies, DRAM, Deflate ASICs) stay at the
     * paper's full-scale values: latencies do not scale with capacity.
     */
    static SimConfig scaledDefault();
};

/**
 * The per-workload scale preset on top of scaledDefault(): the
 * non-graph analogues (mcf, omnetpp, canneal) run at scale 0.8 -- their
 * paper footprints are smaller but must stay >> the scaled TLB reach.
 */
inline void
applyScalePreset(SimConfig &cfg)
{
    if (cfg.workload == "mcf" || cfg.workload == "omnetpp" ||
        cfg.workload == "canneal")
        cfg.scale = 0.8;
}

/**
 * Strictly parse a `--sample` / TMCC_SAMPLE spec `k:w[:warm]` (all
 * positive integers; warm defaults to w) into cfg.sampleWindows /
 * sampleWindowAccesses / sampleWarmAccesses.
 */
inline void
parseSampleSpec(const std::string &flag, const std::string &s,
                SimConfig &cfg)
{
    const std::string usage =
        flag + " must be k:w[:warm] with positive integers, got \"" + s +
        "\"";
    std::vector<std::uint64_t> parts;
    for (std::size_t pos = 0; pos <= s.size() && parts.size() <= 3;) {
        const std::size_t colon = std::min(s.find(':', pos), s.size());
        const auto part = cli::tryParseNumber(
            std::string_view(s).substr(pos, colon - pos), std::uint64_t{1});
        fatalIf(!part, usage);
        parts.push_back(*part);
        pos = colon + 1;
    }
    fatalIf(parts.size() < 2 || parts.size() > 3, usage);
    cfg.sampleWindows = parts[0];
    cfg.sampleWindowAccesses = parts[1];
    cfg.sampleWarmAccesses = parts.back();
}

} // namespace tmcc

#endif // TMCC_SIM_SIM_CONFIG_HH
