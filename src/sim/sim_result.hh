/**
 * @file
 * Aggregated results of one simulation run: everything the paper's
 * tables and figures consume, and serializeSimResult, the byte
 * encoding the golden digests are computed over.
 */

#ifndef TMCC_SIM_SIM_RESULT_HH
#define TMCC_SIM_SIM_RESULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace tmcc
{

/** One sampled headline metric: per-window mean and 95% CI radius. */
struct SampleMetric
{
    std::string name;
    double mean = 0.0;
    double ci95 = 0.0; //!< half-width; 0 when only one window ran
};

/**
 * Interval-sampling summary (SimConfig::sampleWindows > 0): the
 * per-window mean and Student-t 95% confidence interval of every
 * headline metric, plus the sampling geometry that produced them.
 * Empty (windows == 0) for exact runs.
 */
struct SampleSummary
{
    std::uint64_t windows = 0;         //!< detailed windows measured
    std::uint64_t windowAccesses = 0;  //!< per-core accesses per window
    std::uint64_t warmupAccesses = 0;  //!< detailed warm-up per window
    std::uint64_t ffAccesses = 0;      //!< fast-forwarded accesses/core
    std::vector<SampleMetric> metrics;
};

/**
 * One epoch of the measured window (SimConfig::statsInterval > 0):
 * headline gauges plus the per-key counter deltas since the previous
 * snapshot.  Summing `delta` across epochs reproduces the end-of-run
 * totals for every monotonic counter.
 */
struct EpochStat
{
    std::uint64_t accesses = 0;      //!< cumulative measured accesses
    std::uint64_t deltaAccesses = 0; //!< accesses in this epoch
    Tick endTick = 0;                //!< relative to measurement start

    double ml2AccessRate = 0.0; //!< ML2 / (LLC misses + writebacks)
    double cteHitRate = 0.0;    //!< CTE-cache hit rate in this epoch
    double dramUsedBytes = 0.0; //!< live bytes (absolute gauge)

    StatDump delta; //!< counter deltas vs. the previous epoch
};

/** Measured outcomes of one run. */
struct SimResult
{
    // Throughput.
    std::uint64_t accesses = 0;
    std::uint64_t storeAccesses = 0;
    Tick elapsed = 0;

    /** Performance: accesses per nanosecond across all cores. */
    double
    accessesPerNs() const
    {
        return elapsed ? static_cast<double>(accesses) /
                             ticksToNs(elapsed)
                       : 0.0;
    }

    /** The paper's metric shape: stores per CPU cycle (2.8GHz). */
    double
    storesPerCycle() const
    {
        return elapsed ? static_cast<double>(storeAccesses) /
                             (ticksToNs(elapsed) * 2.8)
                       : 0.0;
    }

    // Translation behaviour (Figs. 1, 5).
    std::uint64_t tlbMisses = 0;
    std::uint64_t tlbHits = 0;
    std::uint64_t llcMisses = 0;        //!< demand L3 misses
    std::uint64_t llcWritebacks = 0;
    std::uint64_t cteHits = 0;
    std::uint64_t cteMisses = 0;
    std::uint64_t cteMissesAfterTlbMiss = 0;

    // ML1 access split (Fig. 19).
    std::uint64_t ml1CteHit = 0;
    std::uint64_t ml1Parallel = 0;
    std::uint64_t ml1Mismatch = 0;
    std::uint64_t ml1Serial = 0;

    // ML2 (Fig. 21).
    std::uint64_t ml2Accesses = 0;

    // Latency (Fig. 18).
    double avgL3MissLatencyNs = 0.0;

    // Latency distributions over the measured window (Fig. 18's
    // distribution-level claims).  Ranges cover the interesting span
    // at full timing scale; the overflow bucket catches the tail.
    Histogram l3MissLatency{0.0, 1000.0, 100};
    Histogram pageWalkLatency{0.0, 2000.0, 100};
    Histogram ml2FaultLatency{0.0, 20000.0, 100};

    // Bandwidth (Fig. 16 / 22).
    double readBusUtil = 0.0;
    double writeBusUtil = 0.0;

    // Capacity.
    std::uint64_t footprintBytes = 0;
    std::uint64_t dramUsedBytes = 0;

    double
    compressionRatio() const
    {
        return dramUsedBytes
                   ? static_cast<double>(footprintBytes) /
                         static_cast<double>(dramUsedBytes)
                   : 1.0;
    }

    // Phase bookkeeping: wall-clock split between the setup phase
    // (construction + fast-forward placement) and the measured phase.
    // Host-side metadata only — never part of `stats`, so bit-identity
    // comparisons ignore it.
    double setupSeconds = 0.0;
    double measureSeconds = 0.0;

    /** Every component's raw counters. */
    StatDump stats;

    /** Per-epoch time series (empty unless statsInterval > 0). */
    std::vector<EpochStat> epochs;

    /** Interval-sampling CI summary (empty unless sampleWindows > 0). */
    SampleSummary sample;
};

/**
 * Append every field of `res` to `w`, in declaration order, doubles as
 * their exact bit patterns.  GoldenFingerprint and KernelIdentity
 * digest these bytes, so any change to the encoding re-pins every
 * golden.
 */
void serializeSimResult(ByteWriter &w, const SimResult &res);

} // namespace tmcc

#endif // TMCC_SIM_SIM_RESULT_HH
