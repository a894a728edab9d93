/** Tests for trace capture and replay. */

#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "workloads/trace.hh"

namespace tmcc
{
namespace
{

class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // ctest runs each case as its own process, possibly in
        // parallel: a per-process, per-case file keeps one case's
        // TearDown from deleting another's trace.
        path_ = (std::filesystem::temp_directory_path() /
                 ("tmcc_trace_test_" + std::to_string(::getpid()) + "_" +
                  ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name() +
                  ".tmcctrc"))
                    .string();
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    std::string path_;
};

TEST_F(TraceTest, RecordReplayRoundTrip)
{
    auto source = makeWorkload("pageRank", 0, 4, 0.02, 5);
    auto reference = makeWorkload("pageRank", 0, 4, 0.02, 5);

    TraceRecorder::record(*source, path_, 5000);
    TraceWorkload replay(path_);

    EXPECT_EQ(replay.accessCount(), 5000u);
    EXPECT_EQ(replay.regions().size(), reference->regions().size());
    for (std::size_t i = 0; i < replay.regions().size(); ++i) {
        EXPECT_EQ(replay.regions()[i].base,
                  reference->regions()[i].base);
        EXPECT_EQ(replay.regions()[i].bytes,
                  reference->regions()[i].bytes);
        EXPECT_EQ(replay.regions()[i].name,
                  reference->regions()[i].name);
    }
    for (int i = 0; i < 5000; ++i) {
        const MemAccess want = reference->next();
        const MemAccess got = replay.next();
        ASSERT_EQ(got.vaddr, want.vaddr);
        ASSERT_EQ(got.isWrite, want.isWrite);
    }
}

TEST_F(TraceTest, ReplayLoopsAtEnd)
{
    auto source = makeWorkload("mcf", 1, 4, 0.05, 3);
    TraceRecorder::record(*source, path_, 100);
    TraceWorkload replay(path_);
    std::vector<Addr> first;
    for (int i = 0; i < 100; ++i)
        first.push_back(replay.next().vaddr);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(replay.next().vaddr, first[i]);
}

TEST_F(TraceTest, ThinkCyclesSaturateAt255)
{
    auto source = makeWorkload("swaptions", 0, 1, 0.05, 1);
    TraceRecorder::record(*source, path_, 500);
    TraceWorkload replay(path_);
    for (int i = 0; i < 500; ++i)
        ASSERT_LE(replay.next().thinkCycles, 255u);
}

} // namespace
} // namespace tmcc
