#include "sim/sweep_manifest.hh"

#include <utility>

#include "common/log.hh"
#include "common/versioned_file.hh"

namespace tmcc
{

namespace
{

constexpr char specMagic[8] = {'T', 'M', 'C', 'C', 'S', 'P', 'E', 'C'};
constexpr char resultMagic[8] = {'T', 'M', 'C', 'C', 'S', 'H', 'R', 'D'};
constexpr char manifestMagic[8] = {'T', 'M', 'C', 'C', 'S', 'W', 'P', 'M'};

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
serializeIndices(ByteWriter &w, const std::vector<std::uint64_t> &idx)
{
    w.u64(idx.size());
    for (std::uint64_t i : idx)
        w.u64(i);
}

Status
deserializeIndices(ByteReader &r, std::vector<std::uint64_t> &idx,
                   const char *what)
{
    const std::uint64_t n = r.count(8);
    idx.clear();
    idx.reserve(n);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i)
        idx.push_back(r.u64());
    if (!r.ok())
        return Status::truncated(std::string(what) + " too short");
    return Status::okStatus();
}

void
serializeStatDump(ByteWriter &w, const StatDump &dump)
{
    w.u64(dump.all().size());
    for (const auto &[name, value] : dump.all()) {
        w.str(name);
        w.f64(value);
    }
}

Status
deserializeStatDump(ByteReader &r, StatDump &dump)
{
    dump = StatDump{};
    const std::uint64_t n = r.count(8 + 8); // length prefix + value
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        const std::string name = r.str();
        dump.set(name, r.f64());
    }
    if (!r.ok())
        return Status::truncated("StatDump payload too short");
    return Status::okStatus();
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
    // mean() divides; the exact running sum round-trips bit-exactly.
    w.f64(h.sampleSum());
    w.u64(h.count());
}

Status
deserializeHistogram(ByteReader &r, Histogram &h)
{
    const double lo = r.f64();
    const double hi = r.f64();
    const std::uint32_t nbuckets = r.u32();
    if (!r.ok() || nbuckets == 0 || !(hi > lo) ||
        nbuckets != h.buckets().size() || lo != h.lo() || hi != h.hi())
        return Status::corruption("histogram geometry mismatch");
    std::vector<std::uint64_t> counts;
    counts.reserve(nbuckets);
    for (std::uint32_t i = 0; i < nbuckets && r.ok(); ++i)
        counts.push_back(r.u64());
    const std::uint64_t underflow = r.u64();
    const std::uint64_t overflow = r.u64();
    const double sum = r.f64();
    const std::uint64_t count = r.u64();
    if (!r.ok())
        return Status::truncated("histogram payload too short");
    h.restore(std::move(counts), underflow, overflow, sum, count);
    return Status::okStatus();
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

Status
deserializeEpoch(ByteReader &r, EpochStat &e)
{
    e.accesses = r.u64();
    e.deltaAccesses = r.u64();
    e.endTick = r.u64();
    e.ml2AccessRate = r.f64();
    e.cteHitRate = r.f64();
    e.dramUsedBytes = r.f64();
    return deserializeStatDump(r, e.delta);
}

} // namespace

void
serializeSimConfig(ByteWriter &w, const SimConfig &cfg)
{
    w.str(cfg.workload);
    w.f64(cfg.scale);
    w.u32(cfg.cores);
    w.u64(cfg.seed);
    w.u8(static_cast<std::uint8_t>(cfg.arch));

    w.f64(cfg.cpuGhz);
    w.u32(cfg.l1Cycles);
    w.u32(cfg.l2Cycles);
    w.u32(cfg.l3Cycles);
    w.f64(cfg.nocToMcNs);
    w.u32(cfg.tlbEntries);
    w.u32(cfg.cteBufferEntries);
    w.u8(cfg.hugePages ? 1 : 0);
    w.u8(cfg.nestedPaging ? 1 : 0);
    w.f64(cfg.memOverlapFactor);

    const HierarchyConfig &h = cfg.hierarchy;
    w.u64(h.l1Bytes);
    w.u32(h.l1Assoc);
    w.u64(h.l2Bytes);
    w.u32(h.l2Assoc);
    w.u64(h.l3Bytes);
    w.u32(h.l3Assoc);
    w.u8(h.prefetchers ? 1 : 0);
    w.u32(h.strideDegreeL1);
    w.u32(h.strideDegreeL2);

    const DramConfig &d = cfg.dram;
    w.u32(d.ranks);
    w.u32(d.bankGroups);
    w.u32(d.banksPerGroup);
    w.u64(d.rowBytes);
    w.u64(d.channelBytes);
    w.f64(d.tCkNs);
    w.f64(d.tClNs);
    w.f64(d.tRcdNs);
    w.f64(d.tRpNs);
    w.f64(d.tBurstNs);
    w.f64(d.tWrNs);
    w.f64(d.tRtwNs);
    w.f64(d.tWtrNs);
    w.u32(d.rowAccessCap);
    w.u32(d.writeQueueDepth);
    w.u32(d.writeDrainHigh);
    w.u32(d.writeDrainLow);

    const InterleaveConfig &il = cfg.interleave;
    w.u32(il.numMcs);
    w.u32(il.channelsPerMc);
    w.u64(il.mcGranularity);
    w.u64(il.channelGranularity);

    const CompressoConfig &c = cfg.compresso;
    w.u64(c.cteCacheBytes);
    w.u64(c.chunkBytes);
    w.f64(c.mcProcNs);
    w.f64(c.blockDecompressNs);
    w.f64(c.llcVictimLatNs);
    w.u8(c.cteVictimInLlc ? 1 : 0);
    w.u64(c.llcVictimBytes);
    w.f64(c.repackBlockFraction);

    const OsMcConfig &o = cfg.osMc;
    w.u64(o.cteCacheBytes);
    w.f64(o.mcProcNs);
    w.u8(o.embedCtes ? 1 : 0);
    w.u8(o.fastDeflate ? 1 : 0);
    w.u64(o.dramBudgetBytes);
    w.u64(o.ml1TargetPages);
    w.u64(o.freeListLow);
    w.u64(o.freeListCritical);
    w.u64(o.evictBatch);
    w.u32(o.migrationBufferEntries);
    w.f64(o.migrationGBs);
    w.f64(o.recencySampleP);
    w.u64(o.ptb.managedDramBytes);
    w.u64(o.ptb.physPages);
    w.f64(o.faults.ml2BitFlipRate);
    w.f64(o.faults.cteBitFlipRate);
    w.f64(o.faults.ptbBitFlipRate);
    w.f64(o.faults.transientFraction);
    w.u64(o.faults.seed);

    w.f64(cfg.dramBudgetFraction);
    w.u64(cfg.placementAccesses);
    w.u64(cfg.warmAccesses);
    w.u64(cfg.measureAccesses);
    w.u64(cfg.statsInterval);

    // v2: execution kernel + interval-sampling geometry.
    w.u8(static_cast<std::uint8_t>(cfg.kernel));
    w.u64(cfg.sampleWindows);
    w.u64(cfg.sampleWindowAccesses);
    w.u64(cfg.sampleWarmAccesses);

    // v3: multi-tenant knobs.
    w.u32(cfg.tenants);
    w.f64(cfg.tenantChurn);
    w.f64(cfg.tenantZipf);
}

Status
deserializeSimConfig(ByteReader &r, SimConfig &cfg)
{
    cfg.workload = r.str();
    cfg.scale = r.f64();
    cfg.cores = r.u32();
    cfg.seed = r.u64();
    const std::uint8_t arch = r.u8();
    if (arch > static_cast<std::uint8_t>(Arch::Tmcc))
        return Status::corruption("SimConfig arch out of range");
    cfg.arch = static_cast<Arch>(arch);

    cfg.cpuGhz = r.f64();
    cfg.l1Cycles = r.u32();
    cfg.l2Cycles = r.u32();
    cfg.l3Cycles = r.u32();
    cfg.nocToMcNs = r.f64();
    cfg.tlbEntries = r.u32();
    cfg.cteBufferEntries = r.u32();
    cfg.hugePages = r.u8() != 0;
    cfg.nestedPaging = r.u8() != 0;
    cfg.memOverlapFactor = r.f64();

    HierarchyConfig &h = cfg.hierarchy;
    h.l1Bytes = r.u64();
    h.l1Assoc = r.u32();
    h.l2Bytes = r.u64();
    h.l2Assoc = r.u32();
    h.l3Bytes = r.u64();
    h.l3Assoc = r.u32();
    h.prefetchers = r.u8() != 0;
    h.strideDegreeL1 = r.u32();
    h.strideDegreeL2 = r.u32();

    DramConfig &d = cfg.dram;
    d.ranks = r.u32();
    d.bankGroups = r.u32();
    d.banksPerGroup = r.u32();
    d.rowBytes = r.u64();
    d.channelBytes = r.u64();
    d.tCkNs = r.f64();
    d.tClNs = r.f64();
    d.tRcdNs = r.f64();
    d.tRpNs = r.f64();
    d.tBurstNs = r.f64();
    d.tWrNs = r.f64();
    d.tRtwNs = r.f64();
    d.tWtrNs = r.f64();
    d.rowAccessCap = r.u32();
    d.writeQueueDepth = r.u32();
    d.writeDrainHigh = r.u32();
    d.writeDrainLow = r.u32();

    InterleaveConfig &il = cfg.interleave;
    il.numMcs = r.u32();
    il.channelsPerMc = r.u32();
    il.mcGranularity = r.u64();
    il.channelGranularity = r.u64();

    CompressoConfig &c = cfg.compresso;
    c.cteCacheBytes = r.u64();
    c.chunkBytes = r.u64();
    c.mcProcNs = r.f64();
    c.blockDecompressNs = r.f64();
    c.llcVictimLatNs = r.f64();
    c.cteVictimInLlc = r.u8() != 0;
    c.llcVictimBytes = r.u64();
    c.repackBlockFraction = r.f64();

    OsMcConfig &o = cfg.osMc;
    o.cteCacheBytes = r.u64();
    o.mcProcNs = r.f64();
    o.embedCtes = r.u8() != 0;
    o.fastDeflate = r.u8() != 0;
    o.dramBudgetBytes = r.u64();
    o.ml1TargetPages = r.u64();
    o.freeListLow = r.u64();
    o.freeListCritical = r.u64();
    o.evictBatch = r.u64();
    o.migrationBufferEntries = r.u32();
    o.migrationGBs = r.f64();
    o.recencySampleP = r.f64();
    o.ptb.managedDramBytes = r.u64();
    o.ptb.physPages = r.u64();
    o.faults.ml2BitFlipRate = r.f64();
    o.faults.cteBitFlipRate = r.f64();
    o.faults.ptbBitFlipRate = r.f64();
    o.faults.transientFraction = r.f64();
    o.faults.seed = r.u64();

    cfg.dramBudgetFraction = r.f64();
    cfg.placementAccesses = r.u64();
    cfg.warmAccesses = r.u64();
    cfg.measureAccesses = r.u64();
    cfg.statsInterval = r.u64();

    const std::uint8_t kernel = r.u8();
    if (kernel > static_cast<std::uint8_t>(KernelMode::Batch))
        return Status::corruption("SimConfig kernel mode out of range");
    cfg.kernel = static_cast<KernelMode>(kernel);
    cfg.sampleWindows = r.u64();
    cfg.sampleWindowAccesses = r.u64();
    cfg.sampleWarmAccesses = r.u64();

    cfg.tenants = r.u32();
    cfg.tenantChurn = r.f64();
    cfg.tenantZipf = r.f64();

    if (!r.ok())
        return Status::truncated("SimConfig payload too short");
    return Status::okStatus();
}

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
    w.u8(res.restoredFromCheckpoint ? 1 : 0);
    serializeStatDump(w, res.stats);
    w.u64(res.epochs.size());
    for (const EpochStat &e : res.epochs)
        serializeEpoch(w, e);

    // v2: interval-sampling summary.
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

    // v4 (ShardResultFile): per-tenant isolation stats.
    w.u64(res.tenants.size());
    for (const TenantStat &t : res.tenants) {
        w.u64(t.accesses);
        w.u64(t.ml2Faults);
        w.u64(t.footprintBytes);
        serializeHistogram(w, t.ml2FaultLatency);
    }
}

Status
deserializeSimResult(ByteReader &r, SimResult &res)
{
    res = SimResult{};
    res.accesses = r.u64();
    res.storeAccesses = r.u64();
    res.elapsed = r.u64();
    res.tlbMisses = r.u64();
    res.tlbHits = r.u64();
    res.llcMisses = r.u64();
    res.llcWritebacks = r.u64();
    res.cteHits = r.u64();
    res.cteMisses = r.u64();
    res.cteMissesAfterTlbMiss = r.u64();
    res.ml1CteHit = r.u64();
    res.ml1Parallel = r.u64();
    res.ml1Mismatch = r.u64();
    res.ml1Serial = r.u64();
    res.ml2Accesses = r.u64();
    res.avgL3MissLatencyNs = r.f64();
    TMCC_RETURN_IF_ERROR(deserializeHistogram(r, res.l3MissLatency));
    TMCC_RETURN_IF_ERROR(deserializeHistogram(r, res.pageWalkLatency));
    TMCC_RETURN_IF_ERROR(deserializeHistogram(r, res.ml2FaultLatency));
    res.readBusUtil = r.f64();
    res.writeBusUtil = r.f64();
    res.footprintBytes = r.u64();
    res.dramUsedBytes = r.u64();
    res.setupSeconds = r.f64();
    res.measureSeconds = r.f64();
    res.restoredFromCheckpoint = r.u8() != 0;
    TMCC_RETURN_IF_ERROR(deserializeStatDump(r, res.stats));
    const std::uint64_t n_epochs = r.count(8 * 6 + 8);
    res.epochs.clear();
    res.epochs.reserve(n_epochs);
    for (std::uint64_t i = 0; i < n_epochs && r.ok(); ++i) {
        EpochStat e;
        TMCC_RETURN_IF_ERROR(deserializeEpoch(r, e));
        res.epochs.push_back(std::move(e));
    }

    res.sample.windows = r.u64();
    res.sample.windowAccesses = r.u64();
    res.sample.warmupAccesses = r.u64();
    res.sample.ffAccesses = r.u64();
    const std::uint64_t n_metrics = r.count(8 + 8 + 8);
    res.sample.metrics.clear();
    res.sample.metrics.reserve(n_metrics);
    for (std::uint64_t i = 0; i < n_metrics && r.ok(); ++i) {
        SampleMetric m;
        m.name = r.str();
        m.mean = r.f64();
        m.ci95 = r.f64();
        res.sample.metrics.push_back(std::move(m));
    }

    const std::uint64_t n_tenants = r.count(8 * 3);
    res.tenants.clear();
    res.tenants.reserve(n_tenants);
    for (std::uint64_t i = 0; i < n_tenants && r.ok(); ++i) {
        TenantStat t;
        t.accesses = r.u64();
        t.ml2Faults = r.u64();
        t.footprintBytes = r.u64();
        TMCC_RETURN_IF_ERROR(
            deserializeHistogram(r, t.ml2FaultLatency));
        res.tenants.push_back(std::move(t));
    }

    if (!r.ok())
        return Status::truncated("SimResult payload too short");
    return Status::okStatus();
}

std::string
sweepGridKey(const std::vector<SimConfig> &grid)
{
    ByteWriter w;
    w.u64(grid.size());
    for (const SimConfig &cfg : grid)
        serializeSimConfig(w, cfg);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(w.buffer().data(), w.buffer().size())));
    return buf;
}

Status
ShardSpec::save(const std::string &path) const
{
    ByteWriter w;
    w.str(gridKey);
    w.u32(shardId);
    w.u32(workerJobs);
    serializeIndices(w, configIndices);
    w.u64(configs.size());
    for (const SimConfig &cfg : configs)
        serializeSimConfig(w, cfg);
    return writeVersionedFile(path, specMagic, formatVersion,
                              w.buffer());
}

StatusOr<ShardSpec>
ShardSpec::load(const std::string &path)
{
    TMCC_ASSIGN_OR_RETURN(
        const std::vector<std::uint8_t> payload,
        readVersionedFile(path, specMagic, formatVersion));
    ByteReader r(payload);
    ShardSpec spec;
    spec.gridKey = r.str();
    spec.shardId = r.u32();
    spec.workerJobs = r.u32();
    TMCC_RETURN_IF_ERROR(
        deserializeIndices(r, spec.configIndices, "ShardSpec indices"));
    const std::uint64_t n = r.count(1);
    spec.configs.reserve(n);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        SimConfig cfg;
        TMCC_RETURN_IF_ERROR(deserializeSimConfig(r, cfg));
        spec.configs.push_back(std::move(cfg));
    }
    TMCC_RETURN_IF_ERROR(r.finish("ShardSpec"));
    if (spec.configs.size() != spec.configIndices.size())
        return Status::corruption(
            "ShardSpec config/index count mismatch");
    return spec;
}

Status
ShardResultFile::save(const std::string &path) const
{
    ByteWriter w;
    w.str(gridKey);
    w.u32(shardId);
    w.u32(attempt);
    w.u64(ckptMemoryHits);
    w.u64(ckptDiskHits);
    w.u64(ckptMisses);
    w.u64(ckptRejected);
    serializeIndices(w, configIndices);
    w.u64(results.size());
    for (const SimResult &res : results)
        serializeSimResult(w, res);
    return writeVersionedFile(path, resultMagic, formatVersion,
                              w.buffer());
}

StatusOr<ShardResultFile>
ShardResultFile::load(const std::string &path)
{
    TMCC_ASSIGN_OR_RETURN(
        const std::vector<std::uint8_t> payload,
        readVersionedFile(path, resultMagic, formatVersion));
    ByteReader r(payload);
    ShardResultFile file;
    file.gridKey = r.str();
    file.shardId = r.u32();
    file.attempt = r.u32();
    file.ckptMemoryHits = r.u64();
    file.ckptDiskHits = r.u64();
    file.ckptMisses = r.u64();
    file.ckptRejected = r.u64();
    if (file.attempt == 0)
        return Status::corruption("ShardResultFile attempt must be "
                                  "positive");
    TMCC_RETURN_IF_ERROR(deserializeIndices(r, file.configIndices,
                                            "ShardResultFile indices"));
    const std::uint64_t n = r.count(1);
    file.results.reserve(n);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        SimResult res;
        TMCC_RETURN_IF_ERROR(deserializeSimResult(r, res));
        file.results.push_back(std::move(res));
    }
    TMCC_RETURN_IF_ERROR(r.finish("ShardResultFile"));
    if (file.results.size() != file.configIndices.size())
        return Status::corruption(
            "ShardResultFile result/index count mismatch");
    return file;
}

const char *
shardStateName(ShardState s)
{
    switch (s) {
      case ShardState::Pending: return "pending";
      case ShardState::Done: return "done";
      case ShardState::Failed: return "failed";
    }
    return "?";
}

Status
SweepManifest::save(const std::string &path) const
{
    ByteWriter w;
    w.str(gridKey);
    w.u64(totalConfigs);
    w.u64(shards.size());
    for (const Shard &s : shards) {
        w.u32(s.id);
        w.u8(static_cast<std::uint8_t>(s.state));
        w.u32(s.attempts);
        w.str(s.lastError);
        serializeIndices(w, s.configIndices);
    }
    return writeVersionedFile(path, manifestMagic, formatVersion,
                              w.buffer());
}

StatusOr<SweepManifest>
SweepManifest::load(const std::string &path)
{
    TMCC_ASSIGN_OR_RETURN(
        const std::vector<std::uint8_t> payload,
        readVersionedFile(path, manifestMagic, formatVersion));
    ByteReader r(payload);
    SweepManifest m;
    m.gridKey = r.str();
    m.totalConfigs = r.u64();
    const std::uint64_t n = r.count(4 + 1 + 4 + 8 + 8);
    m.shards.reserve(n);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        Shard s;
        s.id = r.u32();
        const std::uint8_t state = r.u8();
        if (state > static_cast<std::uint8_t>(ShardState::Failed))
            return Status::corruption("manifest shard state out of range");
        s.state = static_cast<ShardState>(state);
        s.attempts = r.u32();
        s.lastError = r.str();
        TMCC_RETURN_IF_ERROR(
            deserializeIndices(r, s.configIndices, "manifest indices"));
        m.shards.push_back(std::move(s));
    }
    TMCC_RETURN_IF_ERROR(r.finish("SweepManifest"));
    return m;
}

} // namespace tmcc
