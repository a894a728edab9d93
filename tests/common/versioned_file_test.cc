/**
 * @file
 * The shared versioned-file container: every on-disk artifact
 * (shard specs/results, the sweep manifest) inherits its
 * guarantees, so they are tested once here — atomic publication under
 * concurrent multi-process-style writers, rejection taxonomy, and
 * tolerance of partially written files.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/status.hh"
#include "common/versioned_file.hh"

namespace tmcc
{
namespace
{

namespace fs = std::filesystem;

constexpr char magic[8] = {'T', 'M', 'C', 'C', 'T', 'E', 'S', 'T'};

class VersionedFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("tmcc_versioned_file_test_" +
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

TEST_F(VersionedFileTest, RoundTrip)
{
    const std::vector<std::uint8_t> payload = {1, 2, 3, 255, 0, 42};
    ASSERT_TRUE(writeVersionedFile(path("f"), magic, 7, payload).ok());
    const auto loaded = readVersionedFile(path("f"), magic, 7);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(*loaded, payload);
}

TEST_F(VersionedFileTest, EmptyPayloadRoundTrips)
{
    ASSERT_TRUE(writeVersionedFile(path("f"), magic, 1, {}).ok());
    const auto loaded = readVersionedFile(path("f"), magic, 1);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded->empty());
}

TEST_F(VersionedFileTest, NoTempFileSurvivesPublication)
{
    ASSERT_TRUE(
        writeVersionedFile(path("f"), magic, 1, {1, 2, 3}).ok());
    std::size_t entries = 0;
    for (const auto &e : fs::directory_iterator(dir_)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

/**
 * Many writers racing on one path (several sweep workers publishing
 * the same shard result): every reader must observe some writer's complete payload —
 * unique temp names + rename make interleaved torn writes impossible.
 */
TEST_F(VersionedFileTest, ConcurrentWritersNeverTearTheFile)
{
    constexpr unsigned kWriters = 8;
    constexpr unsigned kRounds = 25;
    std::atomic<unsigned> writersDone{0};
    std::vector<std::thread> writers;
    for (unsigned w = 0; w < kWriters; ++w)
        writers.emplace_back([&, w] {
            // Distinct sizes and contents per writer, so a spliced
            // file could not pass both the length and CRC checks.
            std::vector<std::uint8_t> payload(64 + 64 * w,
                                              static_cast<std::uint8_t>(w));
            for (unsigned r = 0; r < kRounds; ++r)
                ASSERT_TRUE(writeVersionedFile(path("shared"), magic, 1,
                                               payload)
                                .ok());
            writersDone.fetch_add(1);
        });

    // Read concurrently until every writer has finished.
    unsigned observed = 0;
    while (writersDone.load() < kWriters) {
        const auto loaded = readVersionedFile(path("shared"), magic, 1);
        if (!loaded.ok())
            continue; // not yet published at all
        ++observed;
        const std::vector<std::uint8_t> &p = *loaded;
        ASSERT_FALSE(p.empty());
        const std::uint8_t w = p.front();
        ASSERT_LT(w, kWriters);
        EXPECT_EQ(p.size(), 64u + 64u * w);
        for (std::uint8_t byte : p)
            ASSERT_EQ(byte, w);
    }
    for (auto &t : writers)
        t.join();
    EXPECT_GT(observed, 0u);

    // After the dust settles: exactly the final file, no temp litter.
    const auto loaded = readVersionedFile(path("shared"), magic, 1);
    ASSERT_TRUE(loaded.ok());
    std::size_t entries = 0;
    for (const auto &e : fs::directory_iterator(dir_)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

/** A writer killed mid-temp-write leaves the published file intact. */
TEST_F(VersionedFileTest, StaleTempFileDoesNotShadowThePublishedFile)
{
    const std::vector<std::uint8_t> payload = {9, 9, 9};
    ASSERT_TRUE(writeVersionedFile(path("f"), magic, 1, payload).ok());
    // Simulate a crashed writer's leftovers.
    FILE *f = std::fopen(path("f.tmp.1234.0").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage", f);
    std::fclose(f);

    const auto loaded = readVersionedFile(path("f"), magic, 1);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(*loaded, payload);
}

TEST_F(VersionedFileTest, RejectionTaxonomy)
{
    const std::vector<std::uint8_t> payload(100, 0xab);
    ASSERT_TRUE(writeVersionedFile(path("f"), magic, 3, payload).ok());

    // Wrong magic.
    constexpr char other[8] = {'O', 'T', 'H', 'E', 'R', 'M', 'A', 'G'};
    EXPECT_EQ(readVersionedFile(path("f"), other, 3).status().code(),
              StatusCode::Corruption);

    // Wrong version (both directions).
    EXPECT_EQ(readVersionedFile(path("f"), magic, 2).status().code(),
              StatusCode::Corruption);
    EXPECT_EQ(readVersionedFile(path("f"), magic, 4).status().code(),
              StatusCode::Corruption);

    // Truncation: header-only prefix and mid-payload cut.
    fs::copy_file(path("f"), path("cut"));
    fs::resize_file(path("cut"), versionedFileHeaderBytes + 10);
    EXPECT_EQ(readVersionedFile(path("cut"), magic, 3).status().code(),
              StatusCode::Truncated);
    fs::resize_file(path("cut"), 5);
    EXPECT_EQ(readVersionedFile(path("cut"), magic, 3).status().code(),
              StatusCode::Truncated);

    // Payload damage fails the CRC.
    fs::copy_file(path("f"), path("bad"));
    FILE *fp = std::fopen(path("bad").c_str(), "r+b");
    ASSERT_NE(fp, nullptr);
    std::fseek(fp, -1, SEEK_END);
    std::fputc(0xcd, fp);
    std::fclose(fp);
    EXPECT_EQ(readVersionedFile(path("bad"), magic, 3).status().code(),
              StatusCode::ChecksumMismatch);

    // Missing file.
    EXPECT_FALSE(readVersionedFile(path("nope"), magic, 3).ok());
}

} // namespace
} // namespace tmcc
