/**
 * @file
 * Sweep artifacts: SimConfig/SimResult serialization must round-trip
 * bit-exactly (the sharded-sweep bit-identity invariant rests on it),
 * the grid key must be deterministic and config-sensitive, and damaged
 * files must be rejected with the right Status — never trusted, never
 * fatal.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/serial.hh"
#include "common/status.hh"
#include "common/versioned_file.hh"
#include "sim/sweep_manifest.hh"

namespace tmcc
{
namespace
{

namespace fs = std::filesystem;

class SweepManifestTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("tmcc_sweep_manifest_test_" +
                std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    fs::path dir_;
};

/** A config with every field nudged off its default. */
SimConfig
fancyConfig()
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = "trace:/tmp/some weird päth.trace";
    cfg.scale = 0.137;
    cfg.cores = 7;
    cfg.seed = 0xdeadbeefcafe;
    cfg.arch = Arch::BarebonePlusMl2;
    cfg.cpuGhz = 3.14159;
    cfg.l1Cycles = 4;
    cfg.l2Cycles = 13;
    cfg.l3Cycles = 49;
    cfg.nocToMcNs = 17.25;
    cfg.tlbEntries = 1023;
    cfg.cteBufferEntries = 63;
    cfg.hugePages = true;
    cfg.nestedPaging = true;
    cfg.memOverlapFactor = 1.75;
    cfg.hierarchy.prefetchers = false;
    cfg.hierarchy.l3Bytes = 3 << 20;
    cfg.dram.tClNs = 13.75;
    cfg.dram.writeQueueDepth = 48;
    cfg.interleave.numMcs = 2;
    cfg.compresso.cteCacheBytes = 12345;
    cfg.compresso.repackBlockFraction = 0.11;
    cfg.osMc.cteCacheBytes = 54321;
    cfg.osMc.embedCtes = false;
    cfg.osMc.faults.ml2BitFlipRate = 1e-7;
    cfg.osMc.faults.cteBitFlipRate = 2e-8;
    cfg.osMc.faults.ptbBitFlipRate = 3e-9;
    cfg.osMc.faults.seed = 99;
    cfg.dramBudgetFraction = 0.625;
    cfg.placementAccesses = 111;
    cfg.warmAccesses = 222;
    cfg.measureAccesses = 333;
    cfg.statsInterval = 44;
    cfg.kernel = KernelMode::Batch;
    cfg.sampleWindows = 5;
    cfg.sampleWindowAccesses = 50;
    cfg.sampleWarmAccesses = 10;
    cfg.tenants = 13;
    cfg.tenantChurn = 0.0675;
    cfg.tenantZipf = 1.375;
    return cfg;
}

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
    res.restoredFromCheckpoint = true;
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
    TenantStat t0;
    t0.accesses = 123'456;
    t0.ml2Faults = 789;
    t0.footprintBytes = 32ULL << 20;
    t0.ml2FaultLatency.sample(100.0 / 3.0);
    t0.ml2FaultLatency.sample(25000.0); // overflow
    res.tenants.push_back(std::move(t0));
    res.tenants.push_back(TenantStat{});
    return res;
}

void
expectConfigEqual(const SimConfig &a, const SimConfig &b)
{
    ByteWriter wa, wb;
    serializeSimConfig(wa, a);
    serializeSimConfig(wb, b);
    EXPECT_EQ(wa.buffer(), wb.buffer());
    // Spot-check a few fields directly so a serializer that drops a
    // field on both sides can't fake the comparison above.
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.scale, b.scale);
    EXPECT_EQ(a.arch, b.arch);
    EXPECT_EQ(a.osMc.faults.ml2BitFlipRate, b.osMc.faults.ml2BitFlipRate);
    EXPECT_EQ(a.statsInterval, b.statsInterval);
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.sampleWindows, b.sampleWindows);
    EXPECT_EQ(a.sampleWindowAccesses, b.sampleWindowAccesses);
    EXPECT_EQ(a.sampleWarmAccesses, b.sampleWarmAccesses);
    EXPECT_EQ(a.tenants, b.tenants);
    EXPECT_EQ(a.tenantChurn, b.tenantChurn);
    EXPECT_EQ(a.tenantZipf, b.tenantZipf);
}

void
expectResultEqual(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.storeAccesses, b.storeAccesses);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.tlbMisses, b.tlbMisses);
    EXPECT_EQ(a.tlbHits, b.tlbHits);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.llcWritebacks, b.llcWritebacks);
    EXPECT_EQ(a.cteHits, b.cteHits);
    EXPECT_EQ(a.cteMisses, b.cteMisses);
    EXPECT_EQ(a.cteMissesAfterTlbMiss, b.cteMissesAfterTlbMiss);
    EXPECT_EQ(a.ml1CteHit, b.ml1CteHit);
    EXPECT_EQ(a.ml1Parallel, b.ml1Parallel);
    EXPECT_EQ(a.ml1Mismatch, b.ml1Mismatch);
    EXPECT_EQ(a.ml1Serial, b.ml1Serial);
    EXPECT_EQ(a.ml2Accesses, b.ml2Accesses);
    // Doubles bit-exact, not approximately equal.
    EXPECT_EQ(a.avgL3MissLatencyNs, b.avgL3MissLatencyNs);
    EXPECT_EQ(a.readBusUtil, b.readBusUtil);
    EXPECT_EQ(a.writeBusUtil, b.writeBusUtil);
    EXPECT_EQ(a.footprintBytes, b.footprintBytes);
    EXPECT_EQ(a.dramUsedBytes, b.dramUsedBytes);
    EXPECT_EQ(a.setupSeconds, b.setupSeconds);
    EXPECT_EQ(a.measureSeconds, b.measureSeconds);
    EXPECT_EQ(a.restoredFromCheckpoint, b.restoredFromCheckpoint);
    EXPECT_EQ(a.stats.all(), b.stats.all());
    EXPECT_EQ(a.l3MissLatency.buckets(), b.l3MissLatency.buckets());
    EXPECT_EQ(a.l3MissLatency.underflow(), b.l3MissLatency.underflow());
    EXPECT_EQ(a.l3MissLatency.overflow(), b.l3MissLatency.overflow());
    EXPECT_EQ(a.l3MissLatency.sampleSum(), b.l3MissLatency.sampleSum());
    EXPECT_EQ(a.l3MissLatency.count(), b.l3MissLatency.count());
    EXPECT_EQ(a.l3MissLatency.mean(), b.l3MissLatency.mean());
    EXPECT_EQ(a.pageWalkLatency.sampleSum(),
              b.pageWalkLatency.sampleSum());
    EXPECT_EQ(a.ml2FaultLatency.overflow(), b.ml2FaultLatency.overflow());
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t i = 0; i < a.epochs.size(); ++i) {
        EXPECT_EQ(a.epochs[i].accesses, b.epochs[i].accesses);
        EXPECT_EQ(a.epochs[i].deltaAccesses, b.epochs[i].deltaAccesses);
        EXPECT_EQ(a.epochs[i].endTick, b.epochs[i].endTick);
        EXPECT_EQ(a.epochs[i].ml2AccessRate, b.epochs[i].ml2AccessRate);
        EXPECT_EQ(a.epochs[i].cteHitRate, b.epochs[i].cteHitRate);
        EXPECT_EQ(a.epochs[i].dramUsedBytes, b.epochs[i].dramUsedBytes);
        EXPECT_EQ(a.epochs[i].delta.all(), b.epochs[i].delta.all());
    }
    EXPECT_EQ(a.sample.windows, b.sample.windows);
    EXPECT_EQ(a.sample.windowAccesses, b.sample.windowAccesses);
    EXPECT_EQ(a.sample.warmupAccesses, b.sample.warmupAccesses);
    EXPECT_EQ(a.sample.ffAccesses, b.sample.ffAccesses);
    ASSERT_EQ(a.sample.metrics.size(), b.sample.metrics.size());
    for (std::size_t i = 0; i < a.sample.metrics.size(); ++i) {
        EXPECT_EQ(a.sample.metrics[i].name, b.sample.metrics[i].name);
        EXPECT_EQ(a.sample.metrics[i].mean, b.sample.metrics[i].mean);
        EXPECT_EQ(a.sample.metrics[i].ci95, b.sample.metrics[i].ci95);
    }
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i) {
        EXPECT_EQ(a.tenants[i].accesses, b.tenants[i].accesses);
        EXPECT_EQ(a.tenants[i].ml2Faults, b.tenants[i].ml2Faults);
        EXPECT_EQ(a.tenants[i].footprintBytes,
                  b.tenants[i].footprintBytes);
        EXPECT_EQ(a.tenants[i].ml2FaultLatency.buckets(),
                  b.tenants[i].ml2FaultLatency.buckets());
        EXPECT_EQ(a.tenants[i].ml2FaultLatency.overflow(),
                  b.tenants[i].ml2FaultLatency.overflow());
        EXPECT_EQ(a.tenants[i].ml2FaultLatency.sampleSum(),
                  b.tenants[i].ml2FaultLatency.sampleSum());
        EXPECT_EQ(a.tenants[i].ml2FaultLatency.count(),
                  b.tenants[i].ml2FaultLatency.count());
    }
}

TEST_F(SweepManifestTest, SimConfigRoundTripsEveryField)
{
    const SimConfig cfg = fancyConfig();
    ByteWriter w;
    serializeSimConfig(w, cfg);

    ByteReader r(w.buffer());
    SimConfig back;
    ASSERT_TRUE(deserializeSimConfig(r, back).ok());
    ASSERT_TRUE(r.finish("config").ok());
    expectConfigEqual(cfg, back);
}

TEST_F(SweepManifestTest, SimConfigRejectsBadArch)
{
    SimConfig cfg = fancyConfig();
    ByteWriter w;
    serializeSimConfig(w, cfg);
    // The arch byte follows workload (8 + len), scale (8), cores (4),
    // seed (8); flip it to garbage.
    std::vector<std::uint8_t> bytes = w.buffer();
    const std::size_t archOff = 8 + cfg.workload.size() + 8 + 4 + 8;
    bytes[archOff] = 0xee;
    ByteReader r(bytes);
    SimConfig back;
    const Status s = deserializeSimConfig(r, back);
    EXPECT_EQ(s.code(), StatusCode::Corruption);
}

TEST_F(SweepManifestTest, SimResultRoundTripsBitExactly)
{
    const SimResult res = fancyResult();
    ByteWriter w;
    serializeSimResult(w, res);

    ByteReader r(w.buffer());
    SimResult back;
    ASSERT_TRUE(deserializeSimResult(r, back).ok());
    ASSERT_TRUE(r.finish("result").ok());
    expectResultEqual(res, back);
}

TEST_F(SweepManifestTest, SimResultTruncatedPayloadRejected)
{
    ByteWriter w;
    serializeSimResult(w, fancyResult());
    std::vector<std::uint8_t> bytes = w.buffer();
    bytes.resize(bytes.size() / 2);
    ByteReader r(bytes);
    SimResult back;
    EXPECT_FALSE(deserializeSimResult(r, back).ok());
}

TEST_F(SweepManifestTest, GridKeyDeterministicAndSensitive)
{
    const std::vector<SimConfig> grid = {fancyConfig(),
                                         SimConfig::scaledDefault()};
    const std::string key = sweepGridKey(grid);
    EXPECT_EQ(key.size(), 16u);
    EXPECT_EQ(key, sweepGridKey(grid));

    // Any config change must change the key: seed, order, grid size.
    std::vector<SimConfig> reseeded = grid;
    reseeded[1].seed ^= 1;
    EXPECT_NE(key, sweepGridKey(reseeded));

    const std::vector<SimConfig> swapped = {grid[1], grid[0]};
    EXPECT_NE(key, sweepGridKey(swapped));

    EXPECT_NE(key, sweepGridKey({grid[0]}));
}

TEST_F(SweepManifestTest, ShardSpecRoundTrip)
{
    ShardSpec spec;
    spec.gridKey = "0123456789abcdef";
    spec.shardId = 3;
    spec.workerJobs = 4;
    spec.configIndices = {1, 4, 7};
    spec.configs = {fancyConfig(), SimConfig::scaledDefault(),
                    fancyConfig()};

    ASSERT_TRUE(spec.save(path("shard.spec")).ok());
    const auto loaded = ShardSpec::load(path("shard.spec"));
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded->gridKey, spec.gridKey);
    EXPECT_EQ(loaded->shardId, 3u);
    EXPECT_EQ(loaded->workerJobs, 4u);
    EXPECT_EQ(loaded->configIndices, spec.configIndices);
    ASSERT_EQ(loaded->configs.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        expectConfigEqual(loaded->configs[i], spec.configs[i]);
}

TEST_F(SweepManifestTest, ShardResultFileRoundTrip)
{
    ShardResultFile file;
    file.gridKey = "feedfacefeedface";
    file.shardId = 1;
    file.configIndices = {0, 2};
    file.results = {fancyResult(), SimResult{}};

    ASSERT_TRUE(file.save(path("shard.result")).ok());
    const auto loaded = ShardResultFile::load(path("shard.result"));
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded->gridKey, file.gridKey);
    EXPECT_EQ(loaded->shardId, 1u);
    EXPECT_EQ(loaded->configIndices, file.configIndices);
    ASSERT_EQ(loaded->results.size(), 2u);
    expectResultEqual(loaded->results[0], file.results[0]);
    expectResultEqual(loaded->results[1], file.results[1]);
}

TEST_F(SweepManifestTest, ManifestRoundTrip)
{
    SweepManifest m;
    m.gridKey = "00ff00ff00ff00ff";
    m.totalConfigs = 9;
    m.shards.resize(3);
    m.shards[0] = {0, ShardState::Done, 1, "", {0, 3, 6}};
    m.shards[1] = {1, ShardState::Failed, 3,
                   "killed by signal 9 (Killed)", {1, 4, 7}};
    m.shards[2] = {2, ShardState::Pending, 0, "", {2, 5, 8}};

    ASSERT_TRUE(m.save(path("MANIFEST.tmccsweep")).ok());
    const auto loaded = SweepManifest::load(path("MANIFEST.tmccsweep"));
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded->gridKey, m.gridKey);
    EXPECT_EQ(loaded->totalConfigs, 9u);
    ASSERT_EQ(loaded->shards.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(loaded->shards[i].id, m.shards[i].id);
        EXPECT_EQ(loaded->shards[i].state, m.shards[i].state);
        EXPECT_EQ(loaded->shards[i].attempts, m.shards[i].attempts);
        EXPECT_EQ(loaded->shards[i].lastError, m.shards[i].lastError);
        EXPECT_EQ(loaded->shards[i].configIndices,
                  m.shards[i].configIndices);
    }
}

// ---- file-level rejection taxonomy --------------------------------

TEST_F(SweepManifestTest, MissingFileRejected)
{
    EXPECT_FALSE(ShardResultFile::load(path("nope.result")).ok());
    EXPECT_FALSE(SweepManifest::load(path("nope.manifest")).ok());
}

TEST_F(SweepManifestTest, BadMagicIsCorruption)
{
    ShardResultFile file;
    file.gridKey = "k";
    ASSERT_TRUE(file.save(path("f")).ok());
    {
        FILE *f = std::fopen(path("f").c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fputs("WRONGMAG", f);
        std::fclose(f);
    }
    const auto loaded = ShardResultFile::load(path("f"));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::Corruption);
}

TEST_F(SweepManifestTest, ForeignMagicIsCorruption)
{
    // A spec file read back as a result file: same container format,
    // wrong artifact magic.
    ShardSpec spec;
    spec.gridKey = "k";
    ASSERT_TRUE(spec.save(path("f")).ok());
    const auto loaded = ShardResultFile::load(path("f"));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::Corruption);
}

TEST_F(SweepManifestTest, FutureFormatVersionIsCorruption)
{
    ShardResultFile file;
    file.gridKey = "k";
    ASSERT_TRUE(file.save(path("f")).ok());
    // The u32 version sits right after the 8-byte magic and is not
    // covered by the payload CRC, so it can be patched in place.
    FILE *f = std::fopen(path("f").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 8, SEEK_SET);
    const std::uint8_t future[4] = {0xff, 0x00, 0x00, 0x00};
    std::fwrite(future, 1, 4, f);
    std::fclose(f);

    const auto loaded = ShardResultFile::load(path("f"));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::Corruption);
    EXPECT_NE(loaded.status().message().find("version mismatch"),
              std::string::npos);
}

TEST_F(SweepManifestTest, ConfigRejectsBadKernelByte)
{
    SimConfig cfg = fancyConfig();
    ByteWriter w;
    serializeSimConfig(w, cfg);
    // The kernel byte is the first v2 field: 25 bytes (u8 + 3 x u64)
    // of v2 tail plus 20 bytes (u32 + 2 x f64) of v3 tenant knobs from
    // the end of the config payload.
    std::vector<std::uint8_t> bytes = w.buffer();
    bytes[bytes.size() - 45] = 0x7f;
    ByteReader r(bytes);
    SimConfig back;
    const Status s = deserializeSimConfig(r, back);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::Corruption);
    EXPECT_NE(s.message().find("kernel mode"), std::string::npos);
}

TEST_F(SweepManifestTest, OldFormatVersionIsRejectedClearly)
{
    // A v1-era file (before the kernel/sampling fields) must be
    // rejected by the version gate with a clear message — not parsed
    // as garbage.
    ShardResultFile file;
    file.gridKey = "k";
    ASSERT_TRUE(file.save(path("f")).ok());
    FILE *f = std::fopen(path("f").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 8, SEEK_SET);
    const std::uint8_t v1[4] = {0x01, 0x00, 0x00, 0x00};
    std::fwrite(v1, 1, 4, f);
    std::fclose(f);

    const auto loaded = ShardResultFile::load(path("f"));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::Corruption);
    EXPECT_NE(loaded.status().message().find(
                  "format version mismatch (file v1, expected v4)"),
              std::string::npos);
}

TEST_F(SweepManifestTest, TruncatedFileRejected)
{
    ShardResultFile file;
    file.gridKey = "k";
    file.shardId = 0;
    file.configIndices = {0};
    file.results = {fancyResult()};
    ASSERT_TRUE(file.save(path("f")).ok());

    const auto size = fs::file_size(path("f"));
    fs::resize_file(path("f"), size - 7);
    const auto loaded = ShardResultFile::load(path("f"));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::Truncated);
}

TEST_F(SweepManifestTest, CorruptPayloadIsChecksumMismatch)
{
    ShardResultFile file;
    file.gridKey = "k";
    file.shardId = 0;
    file.configIndices = {0};
    file.results = {fancyResult()};
    ASSERT_TRUE(file.save(path("f")).ok());

    // Flip one payload byte (past the header) in place.
    FILE *f = std::fopen(path("f").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(versionedFileHeaderBytes) + 11,
               SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);

    const auto loaded = ShardResultFile::load(path("f"));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::ChecksumMismatch);
}

TEST_F(SweepManifestTest, ConfigIndexCountMismatchRejected)
{
    ShardResultFile file;
    file.gridKey = "k";
    file.shardId = 0;
    file.configIndices = {0, 1}; // two indices, one result
    file.results = {SimResult{}};
    ASSERT_TRUE(file.save(path("f")).ok());
    const auto loaded = ShardResultFile::load(path("f"));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::Corruption);
}

} // namespace
} // namespace tmcc
