#include "sim/sim_result.hh"

namespace tmcc
{

namespace
{

void
serializeStatDump(ByteWriter &w, const StatDump &dump)
{
    w.u64(dump.all().size());
    for (const auto &[name, value] : dump.all()) {
        w.str(name);
        w.f64(value);
    }
}

void
serializeHistogram(ByteWriter &w, const Histogram &h)
{
    w.f64(h.lo());
    w.f64(h.hi());
    w.u32(static_cast<std::uint32_t>(h.buckets().size()));
    for (std::uint64_t c : h.buckets())
        w.u64(c);
    w.u64(h.underflow());
    w.u64(h.overflow());
    // The exact running sum, not the derived mean.
    w.f64(h.sampleSum());
    w.u64(h.count());
}

void
serializeEpoch(ByteWriter &w, const EpochStat &e)
{
    w.u64(e.accesses);
    w.u64(e.deltaAccesses);
    w.u64(e.endTick);
    w.f64(e.ml2AccessRate);
    w.f64(e.cteHitRate);
    w.f64(e.dramUsedBytes);
    serializeStatDump(w, e.delta);
}

} // namespace

void
serializeSimResult(ByteWriter &w, const SimResult &res)
{
    w.u64(res.accesses);
    w.u64(res.storeAccesses);
    w.u64(res.elapsed);
    w.u64(res.tlbMisses);
    w.u64(res.tlbHits);
    w.u64(res.llcMisses);
    w.u64(res.llcWritebacks);
    w.u64(res.cteHits);
    w.u64(res.cteMisses);
    w.u64(res.cteMissesAfterTlbMiss);
    w.u64(res.ml1CteHit);
    w.u64(res.ml1Parallel);
    w.u64(res.ml1Mismatch);
    w.u64(res.ml1Serial);
    w.u64(res.ml2Accesses);
    w.f64(res.avgL3MissLatencyNs);
    serializeHistogram(w, res.l3MissLatency);
    serializeHistogram(w, res.pageWalkLatency);
    serializeHistogram(w, res.ml2FaultLatency);
    w.f64(res.readBusUtil);
    w.f64(res.writeBusUtil);
    w.u64(res.footprintBytes);
    w.u64(res.dramUsedBytes);
    w.f64(res.setupSeconds);
    w.f64(res.measureSeconds);
    serializeStatDump(w, res.stats);
    w.u64(res.epochs.size());
    for (const EpochStat &e : res.epochs)
        serializeEpoch(w, e);

    w.u64(res.sample.windows);
    w.u64(res.sample.windowAccesses);
    w.u64(res.sample.warmupAccesses);
    w.u64(res.sample.ffAccesses);
    w.u64(res.sample.metrics.size());
    for (const SampleMetric &m : res.sample.metrics) {
        w.str(m.name);
        w.f64(m.mean);
        w.f64(m.ci95);
    }
}

} // namespace tmcc
