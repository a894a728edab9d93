/**
 * @file
 * Setup-phase checkpointing: a restored System must reproduce a cold
 * run bit-for-bit (in-process and through the disk format), corrupt or
 * mismatched checkpoint files must be rejected with a cold-build
 * fallback, and concurrent restores from one shared checkpoint must be
 * race-free (run under TSan in CI).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/runner.hh"
#include "sim/system.hh"

namespace tmcc
{
namespace
{

SimConfig
tinyConfig(Arch arch, const std::string &workload = "pageRank",
           double scale = 0.02)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = workload;
    cfg.scale = scale;
    cfg.arch = arch;
    cfg.placementAccesses = 10'000;
    cfg.warmAccesses = 5'000;
    cfg.measureAccesses = 10'000;
    return cfg;
}

constexpr Arch allArchs[] = {
    Arch::NoCompression,    Arch::Compresso,
    Arch::Barebone,         Arch::BarebonePlusMl1,
    Arch::BarebonePlusMl2,  Arch::Tmcc,
};

void
expectIdentical(const SimResult &a, const SimResult &b)
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
    EXPECT_EQ(a.ml1CteHit, b.ml1CteHit);
    EXPECT_EQ(a.ml1Parallel, b.ml1Parallel);
    EXPECT_EQ(a.ml1Mismatch, b.ml1Mismatch);
    EXPECT_EQ(a.ml1Serial, b.ml1Serial);
    EXPECT_EQ(a.ml2Accesses, b.ml2Accesses);
    EXPECT_EQ(a.footprintBytes, b.footprintBytes);
    EXPECT_EQ(a.dramUsedBytes, b.dramUsedBytes);
    EXPECT_EQ(a.avgL3MissLatencyNs, b.avgL3MissLatencyNs);
    EXPECT_EQ(a.readBusUtil, b.readBusUtil);
    EXPECT_EQ(a.writeBusUtil, b.writeBusUtil);
    // The full counter dump: every component, every stat.
    EXPECT_EQ(a.stats.all(), b.stats.all());
}

/** Build the (arch-invariant) checkpoint for `cfg` directly. */
std::shared_ptr<const SetupCheckpoint>
buildCheckpoint(const SimConfig &cfg)
{
    System sys(cfg);
    sys.setup(/*capture=*/true);
    return sys.captureCheckpoint();
}

/** Isolate each test from the process-wide store. */
class CheckpointStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        CheckpointStore::global().clear();
        CheckpointStore::global().setDiskDir("");
    }
    void
    TearDown() override
    {
        CheckpointStore::global().clear();
        CheckpointStore::global().setDiskDir("");
    }
};

TEST(Checkpoint, RestoreBitIdenticalAcrossAllArchs)
{
    // One checkpoint serves every architecture: the key is the
    // arch-invariant config subset.
    const auto ckpt = buildCheckpoint(tinyConfig(Arch::NoCompression));

    const std::string path = ::testing::TempDir() + "/arch_sweep.ckpt";
    ASSERT_TRUE(ckpt->saveFile(path).ok());
    auto loaded = SetupCheckpoint::loadFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded.value()->key, ckpt->key);

    for (const Arch arch : allArchs) {
        SCOPED_TRACE(std::string("arch ") + archName(arch));
        const SimConfig cfg = tinyConfig(arch);

        System cold(cfg);
        const SimResult r_cold = cold.run();
        EXPECT_FALSE(r_cold.restoredFromCheckpoint);

        System warm(cfg, ckpt);
        const SimResult r_warm = warm.run();
        EXPECT_TRUE(r_warm.restoredFromCheckpoint);
        expectIdentical(r_cold, r_warm);

        System disk(cfg, loaded.value());
        const SimResult r_disk = disk.run();
        EXPECT_TRUE(r_disk.restoredFromCheckpoint);
        expectIdentical(r_cold, r_disk);
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, CaptureRunMatchesColdRun)
{
    // The capturing run itself must not perturb the simulation.
    const SimConfig cfg = tinyConfig(Arch::Tmcc);
    System cold(cfg);
    const SimResult r_cold = cold.run();

    System cap(cfg);
    cap.setup(/*capture=*/true);
    ASSERT_NE(cap.captureCheckpoint(), nullptr);
    expectIdentical(r_cold, cap.measure());
}

TEST(Checkpoint, NestedAndHugePageConfigsRoundTrip)
{
    for (const bool nested : {false, true}) {
        for (const bool huge : {false, true}) {
            SCOPED_TRACE("nested=" + std::to_string(nested) +
                         " huge=" + std::to_string(huge));
            SimConfig cfg = tinyConfig(Arch::Tmcc);
            cfg.nestedPaging = nested;
            cfg.hugePages = huge;

            System cold(cfg);
            const SimResult r_cold = cold.run();

            const auto ckpt = buildCheckpoint(cfg);
            const std::string path =
                ::testing::TempDir() + "/nested_huge.ckpt";
            ASSERT_TRUE(ckpt->saveFile(path).ok());
            auto loaded = SetupCheckpoint::loadFile(path);
            ASSERT_TRUE(loaded.ok()) << loaded.status().toString();

            System disk(cfg, loaded.value());
            expectIdentical(r_cold, disk.run());
            std::remove(path.c_str());
        }
    }
}

TEST(Checkpoint, KeyCoversInvariantSubsetOnly)
{
    const SimConfig base = tinyConfig(Arch::Tmcc);
    const std::string key = SetupCheckpoint::keyFor(base);

    // Arch and measured-phase knobs don't change the key...
    SimConfig same = base;
    same.arch = Arch::Compresso;
    same.measureAccesses *= 2;
    same.warmAccesses *= 2;
    same.tlbEntries = 32;
    EXPECT_EQ(SetupCheckpoint::keyFor(same), key);

    // ...while every setup-relevant knob does.
    SimConfig other = base;
    other.seed += 1;
    EXPECT_NE(SetupCheckpoint::keyFor(other), key);
    other = base;
    other.scale = 0.03;
    EXPECT_NE(SetupCheckpoint::keyFor(other), key);
    other = base;
    other.cores += 1;
    EXPECT_NE(SetupCheckpoint::keyFor(other), key);
    other = base;
    other.workload = "mcf";
    EXPECT_NE(SetupCheckpoint::keyFor(other), key);
    other = base;
    other.hugePages = true;
    EXPECT_NE(SetupCheckpoint::keyFor(other), key);
    other = base;
    other.nestedPaging = true;
    EXPECT_NE(SetupCheckpoint::keyFor(other), key);
    other = base;
    other.placementAccesses += 1;
    EXPECT_NE(SetupCheckpoint::keyFor(other), key);
}

// --- Disk-format rejection taxonomy -------------------------------

class CheckpointFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One file per test: ctest runs these tests concurrently.
        path_ = ::testing::TempDir() + "/reject_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".ckpt";
        ckpt_ = buildCheckpoint(tinyConfig(Arch::NoCompression));
        ASSERT_TRUE(ckpt_->saveFile(path_).ok());
        std::FILE *f = std::fopen(path_.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        bytes_.resize(static_cast<std::size_t>(std::ftell(f)));
        std::fseek(f, 0, SEEK_SET);
        ASSERT_EQ(std::fread(bytes_.data(), 1, bytes_.size(), f),
                  bytes_.size());
        std::fclose(f);
    }

    void TearDown() override { std::remove(path_.c_str()); }

    void
    rewrite(const std::vector<unsigned char> &bytes)
    {
        std::FILE *f = std::fopen(path_.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    }

    StatusCode
    loadCode()
    {
        auto loaded = SetupCheckpoint::loadFile(path_);
        EXPECT_FALSE(loaded.ok());
        return loaded.status().code();
    }

    std::string path_;
    std::shared_ptr<const SetupCheckpoint> ckpt_;
    std::vector<unsigned char> bytes_;
};

TEST_F(CheckpointFileTest, ValidFileLoads)
{
    auto loaded = SetupCheckpoint::loadFile(path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded.value()->key, ckpt_->key);
    EXPECT_EQ(loaded.value()->touchedFrames, ckpt_->touchedFrames);
    EXPECT_EQ(loaded.value()->regionFrames, ckpt_->regionFrames);
    EXPECT_EQ(loaded.value()->workloadStates, ckpt_->workloadStates);
}

TEST_F(CheckpointFileTest, BadMagicIsCorruption)
{
    auto bad = bytes_;
    bad[0] ^= 0xff;
    rewrite(bad);
    EXPECT_EQ(loadCode(), StatusCode::Corruption);
}

TEST_F(CheckpointFileTest, VersionMismatchIsCorruption)
{
    auto bad = bytes_;
    bad[8] += 1; // little-endian format version straight after magic
    rewrite(bad);
    auto loaded = SetupCheckpoint::loadFile(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::Corruption);
    EXPECT_NE(loaded.status().toString().find("version mismatch"),
              std::string::npos);
}

TEST_F(CheckpointFileTest, TruncationIsDetected)
{
    auto bad = bytes_;
    bad.resize(bad.size() / 2);
    rewrite(bad);
    EXPECT_EQ(loadCode(), StatusCode::Truncated);

    rewrite(std::vector<unsigned char>(bytes_.begin(),
                                       bytes_.begin() + 6));
    EXPECT_EQ(loadCode(), StatusCode::Truncated);
}

TEST_F(CheckpointFileTest, PayloadCorruptionFailsCrc)
{
    auto bad = bytes_;
    bad.back() ^= 0x01;
    rewrite(bad);
    EXPECT_EQ(loadCode(), StatusCode::ChecksumMismatch);
}

TEST_F(CheckpointFileTest, MissingFileIsAnError)
{
    auto loaded =
        SetupCheckpoint::loadFile(path_ + ".does-not-exist");
    EXPECT_FALSE(loaded.ok());
}

// --- Store behaviour ----------------------------------------------

TEST_F(CheckpointStoreTest, GridBuildsOnceThenRestores)
{
    CheckpointStore &store = CheckpointStore::global();

    std::vector<SimConfig> configs;
    for (const Arch arch : allArchs)
        configs.push_back(tinyConfig(arch));

    const auto results = SimRunner(1).run(configs);
    const auto s = store.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.memoryHits, configs.size() - 1);
    EXPECT_EQ(s.diskHits, 0u);

    unsigned restored = 0;
    for (const auto &r : results)
        restored += r.restoredFromCheckpoint ? 1 : 0;
    EXPECT_EQ(restored, configs.size() - 1);
}

TEST_F(CheckpointStoreTest, ConcurrentRestoresShareOneBuild)
{
    // Same-key grid over 4 worker threads: exactly one build, five
    // concurrent restores of the shared in-memory checkpoint.  The
    // payoff assertion is running this under TSan (CI).
    CheckpointStore &store = CheckpointStore::global();

    std::vector<SimConfig> configs;
    for (const Arch arch : allArchs)
        configs.push_back(tinyConfig(arch));

    std::vector<SimResult> serial;
    for (const auto &cfg : configs) {
        System sys(cfg);
        serial.push_back(sys.run());
    }

    const auto results = SimRunner(4).run(configs);
    const auto s = store.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.memoryHits, configs.size() - 1);

    ASSERT_EQ(results.size(), serial.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        expectIdentical(serial[i], results[i]);
    }
}

TEST_F(CheckpointStoreTest, DiskPersistenceAcrossClears)
{
    CheckpointStore &store = CheckpointStore::global();
    const std::string dir = ::testing::TempDir() + "/ckpt_store";
    store.setDiskDir(dir);

    const SimConfig cfg = tinyConfig(Arch::Tmcc);
    (void)SimRunner(1).run({cfg});
    EXPECT_EQ(store.stats().misses, 1u);

    // A cleared store simulates a new process: the checkpoint now
    // comes off disk.
    store.clear();
    const auto results = SimRunner(1).run({cfg});
    const auto s = store.stats();
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.diskHits, 1u);
    EXPECT_TRUE(results[0].restoredFromCheckpoint);

    std::filesystem::remove_all(dir);
}

TEST_F(CheckpointStoreTest, CorruptDiskFileFallsBackToColdBuild)
{
    CheckpointStore &store = CheckpointStore::global();
    const std::string dir = ::testing::TempDir() + "/ckpt_corrupt";
    std::filesystem::create_directories(dir);
    store.setDiskDir(dir);

    const SimConfig cfg = tinyConfig(Arch::Tmcc);
    const std::string path =
        dir + "/" +
        SetupCheckpoint::fileNameFor(SetupCheckpoint::keyFor(cfg));
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("definitely not a checkpoint", f);
        std::fclose(f);
    }

    const auto results = SimRunner(1).run({cfg});
    const auto s = store.stats();
    EXPECT_EQ(s.rejectedFiles, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.diskHits, 0u);
    EXPECT_FALSE(results[0].restoredFromCheckpoint);

    // The cold build republishes a good file over the corrupt one.
    store.clear();
    (void)SimRunner(1).run({cfg});
    EXPECT_EQ(store.stats().diskHits, 1u);

    std::filesystem::remove_all(dir);
}

TEST_F(CheckpointStoreTest, ResultsIdenticalWithStoreDisabledPath)
{
    // Direct System construction bypasses the store entirely; the
    // runner path restores.  Both must agree (the TMCC_CKPT=0 A/B).
    const SimConfig cfg = tinyConfig(Arch::Compresso);
    System direct(cfg);
    const SimResult r_direct = direct.run();

    (void)SimRunner(1).run({cfg}); // builds the checkpoint
    const auto restored = SimRunner(1).run({cfg});
    EXPECT_TRUE(restored[0].restoredFromCheckpoint);
    expectIdentical(r_direct, restored[0]);
}

TEST(CheckpointDeathTest, RejectsMalformedEnvironment)
{
    // threadsafe style re-executes the binary, so the store singleton
    // is constructed (and validates the environment) inside the child.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            setenv("TMCC_CKPT", "2", 1);
            CheckpointStore::global();
        },
        "TMCC_CKPT");
    EXPECT_DEATH(
        {
            setenv("TMCC_CKPT", "banana", 1);
            CheckpointStore::global();
        },
        "TMCC_CKPT");
    EXPECT_DEATH(
        {
            setenv("TMCC_CKPT_DIR", "", 1);
            CheckpointStore::global();
        },
        "TMCC_CKPT_DIR");
}

} // namespace
} // namespace tmcc
