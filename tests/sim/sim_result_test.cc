/**
 * @file
 * serializeSimResult must write every SimResult field: the golden
 * digests are CRCs over its bytes, so a field it skipped could change
 * without any golden noticing.  Each case below changes one field of a
 * result that sets them all and requires the bytes to change.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/sim_result.hh"

namespace tmcc
{
namespace
{

/** A result with every field (incl. histograms/epochs/stats) nonzero. */
SimResult
fancyResult()
{
    SimResult res;
    res.accesses = 1'000'001;
    res.storeAccesses = 300'000;
    res.elapsed = 123'456'789;
    res.tlbMisses = 42;
    res.tlbHits = 58;
    res.llcMisses = 777;
    res.llcWritebacks = 333;
    res.cteHits = 11;
    res.cteMisses = 22;
    res.cteMissesAfterTlbMiss = 7;
    res.ml1CteHit = 1;
    res.ml1Parallel = 2;
    res.ml1Mismatch = 3;
    res.ml1Serial = 4;
    res.ml2Accesses = 5;
    res.avgL3MissLatencyNs = 55.125;
    // Irrational-ish samples so the running sums exercise low bits.
    res.l3MissLatency.sample(1.0 / 3.0);
    res.l3MissLatency.sample(999.99);
    res.l3MissLatency.sample(-5.0);    // underflow
    res.l3MissLatency.sample(2000.0);  // overflow
    res.pageWalkLatency.sample(100.0 / 7.0);
    res.ml2FaultLatency.sample(19999.0);
    res.readBusUtil = 0.1 + 0.2; // deliberately not 0.3 exactly
    res.writeBusUtil = 1.0 / 7.0;
    res.footprintBytes = 1 << 30;
    res.dramUsedBytes = 987'654'321;
    res.setupSeconds = 1.5;
    res.measureSeconds = 2.25;
    res.stats.set("l3.misses", 777.0);
    res.stats.set("mc.cte_cache.hits", 1.0 / 3.0);
    EpochStat e;
    e.accesses = 500;
    e.deltaAccesses = 250;
    e.endTick = 9999;
    e.ml2AccessRate = 0.125;
    e.cteHitRate = 2.0 / 3.0;
    e.dramUsedBytes = 1e9;
    e.delta.set("l3.misses", 3.0);
    res.epochs.push_back(e);
    res.epochs.push_back(EpochStat{});
    res.sample.windows = 5;
    res.sample.windowAccesses = 50;
    res.sample.warmupAccesses = 10;
    res.sample.ffAccesses = 123'456;
    res.sample.metrics.push_back({"accesses_per_ns", 1.0 / 3.0, 0.01});
    res.sample.metrics.push_back({"tlb_miss_rate", 0.0625, 0.0});
    return res;
}

std::vector<std::uint8_t>
bytes(const SimResult &res)
{
    ByteWriter w;
    serializeSimResult(w, res);
    return w.buffer();
}

/** `h` rebuilt over the same geometry from `samples`. */
void
resample(Histogram &h, const std::vector<double> &samples)
{
    h.reset();
    for (double v : samples)
        h.sample(v);
}

struct FieldEdit
{
    const char *field;
    std::function<void(SimResult &)> edit;
};

/** One edit per field fancyResult() sets; each touches only its field. */
std::vector<FieldEdit>
fieldEdits()
{
    return {
        {"accesses", [](SimResult &r) { ++r.accesses; }},
        {"storeAccesses", [](SimResult &r) { ++r.storeAccesses; }},
        {"elapsed", [](SimResult &r) { ++r.elapsed; }},
        {"tlbMisses", [](SimResult &r) { ++r.tlbMisses; }},
        {"tlbHits", [](SimResult &r) { ++r.tlbHits; }},
        {"llcMisses", [](SimResult &r) { ++r.llcMisses; }},
        {"llcWritebacks", [](SimResult &r) { ++r.llcWritebacks; }},
        {"cteHits", [](SimResult &r) { ++r.cteHits; }},
        {"cteMisses", [](SimResult &r) { ++r.cteMisses; }},
        {"cteMissesAfterTlbMiss",
         [](SimResult &r) { ++r.cteMissesAfterTlbMiss; }},
        {"ml1CteHit", [](SimResult &r) { ++r.ml1CteHit; }},
        {"ml1Parallel", [](SimResult &r) { ++r.ml1Parallel; }},
        {"ml1Mismatch", [](SimResult &r) { ++r.ml1Mismatch; }},
        {"ml1Serial", [](SimResult &r) { ++r.ml1Serial; }},
        {"ml2Accesses", [](SimResult &r) { ++r.ml2Accesses; }},
        // One ulp: doubles must travel as their exact bit patterns.
        {"avgL3MissLatencyNs",
         [](SimResult &r) {
             r.avgL3MissLatencyNs =
                 std::nextafter(r.avgL3MissLatencyNs, 1e9);
         }},
        // Same buckets, under/overflow and count; only the sum moves.
        {"l3MissLatency.sum",
         [](SimResult &r) {
             resample(r.l3MissLatency, {0.25, 999.99, -5.0, 2000.0});
         }},
        // A histogram's sub-fields: a bucket, underflow or overflow
        // count moves with the sample count and sum.
        {"l3MissLatency.buckets",
         [](SimResult &r) { r.l3MissLatency.sample(500.0); }},
        {"l3MissLatency.underflow",
         [](SimResult &r) { r.l3MissLatency.sample(-1.0); }},
        {"l3MissLatency.overflow",
         [](SimResult &r) { r.l3MissLatency.sample(5000.0); }},
        {"l3MissLatency.geometry",
         [](SimResult &r) {
             r.l3MissLatency = Histogram(0.0, 2000.0, 100);
             resample(r.l3MissLatency, {1.0 / 3.0, 999.99, -5.0, 2000.0});
         }},
        {"pageWalkLatency",
         [](SimResult &r) { r.pageWalkLatency.sample(1.0); }},
        {"ml2FaultLatency",
         [](SimResult &r) { r.ml2FaultLatency.sample(1.0); }},
        {"readBusUtil",
         [](SimResult &r) {
             r.readBusUtil = std::nextafter(r.readBusUtil, 1.0);
         }},
        {"writeBusUtil",
         [](SimResult &r) {
             r.writeBusUtil = std::nextafter(r.writeBusUtil, 1.0);
         }},
        {"footprintBytes", [](SimResult &r) { ++r.footprintBytes; }},
        {"dramUsedBytes", [](SimResult &r) { ++r.dramUsedBytes; }},
        {"setupSeconds", [](SimResult &r) { r.setupSeconds += 0.5; }},
        {"measureSeconds", [](SimResult &r) { r.measureSeconds += 0.5; }},
        {"stats.value",
         [](SimResult &r) { r.stats.set("l3.misses", 778.0); }},
        {"stats.key",
         [](SimResult &r) { r.stats.set("l3.misses.extra", 0.0); }},
        {"epochs.size",
         [](SimResult &r) { r.epochs.push_back(EpochStat{}); }},
        {"epochs.accesses", [](SimResult &r) { ++r.epochs[0].accesses; }},
        {"epochs.deltaAccesses",
         [](SimResult &r) { ++r.epochs[0].deltaAccesses; }},
        {"epochs.endTick", [](SimResult &r) { ++r.epochs[0].endTick; }},
        {"epochs.ml2AccessRate",
         [](SimResult &r) { r.epochs[0].ml2AccessRate += 0.5; }},
        {"epochs.cteHitRate",
         [](SimResult &r) { r.epochs[0].cteHitRate += 0.125; }},
        {"epochs.dramUsedBytes",
         [](SimResult &r) { r.epochs[0].dramUsedBytes += 1.0; }},
        {"epochs.delta",
         [](SimResult &r) { r.epochs[0].delta.set("l3.misses", 4.0); }},
        {"sample.windows", [](SimResult &r) { ++r.sample.windows; }},
        {"sample.windowAccesses",
         [](SimResult &r) { ++r.sample.windowAccesses; }},
        {"sample.warmupAccesses",
         [](SimResult &r) { ++r.sample.warmupAccesses; }},
        {"sample.ffAccesses", [](SimResult &r) { ++r.sample.ffAccesses; }},
        {"sample.metrics.size",
         [](SimResult &r) {
             r.sample.metrics.push_back({"extra", 0.0, 0.0});
         }},
        {"sample.metrics.name",
         [](SimResult &r) { r.sample.metrics[0].name += "~"; }},
        {"sample.metrics.mean",
         [](SimResult &r) { r.sample.metrics[0].mean += 0.5; }},
        {"sample.metrics.ci95",
         [](SimResult &r) { r.sample.metrics[1].ci95 = 0.5; }},
    };
}

TEST(SimResultSerial, EveryFieldReachesTheBytes)
{
    const SimResult base = fancyResult();
    const std::vector<std::uint8_t> base_bytes = bytes(base);
    EXPECT_EQ(bytes(fancyResult()), base_bytes);
    for (const FieldEdit &f : fieldEdits()) {
        SimResult changed = base;
        f.edit(changed);
        EXPECT_TRUE(bytes(changed) != base_bytes)
            << "serializeSimResult ignores " << f.field;
    }
}

} // namespace
} // namespace tmcc
