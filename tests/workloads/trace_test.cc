/** Tests for trace capture and replay. */

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

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

/** A one-access engine over the given regions. */
class RegionsOnly : public Workload
{
  public:
    explicit RegionsOnly(std::vector<WlRegion> regions)
        : regions_(std::move(regions))
    {}

    const std::string &name() const override { return name_; }
    const std::vector<WlRegion> &regions() const override
    {
        return regions_;
    }
    MemAccess next() override { return {regions_[0].base, false}; }

  private:
    std::string name_ = "regions-only";
    std::vector<WlRegion> regions_;
};

WlRegion
region(const char *name, Addr base, std::uint64_t bytes)
{
    WlRegion r;
    r.name = name;
    r.base = base;
    r.bytes = bytes;
    return r;
}

using TraceDeathTest = TraceTest;

TEST_F(TraceDeathTest, RejectsOverlappingRegions)
{
    RegionsOnly source({region("hi", 0x40200000, 0x200000),
                        region("lo", 0x40000000, 0x201000)});
    TraceRecorder::record(source, path_, 1);
    EXPECT_EXIT(TraceWorkload{path_}, ::testing::ExitedWithCode(1),
                "trace regions 'lo' and 'hi' overlap");
}

TEST_F(TraceDeathTest, RejectsUnalignedBase)
{
    RegionsOnly source({region("odd", 0x40000800, 0x1000)});
    TraceRecorder::record(source, path_, 1);
    EXPECT_EXIT(TraceWorkload{path_}, ::testing::ExitedWithCode(1),
                "trace region 'odd' is not 4 KB-aligned");
}

TEST_F(TraceDeathTest, RejectsUnalignedSize)
{
    RegionsOnly source({region("tail", 0x40000000, 0x1800)});
    TraceRecorder::record(source, path_, 1);
    EXPECT_EXIT(TraceWorkload{path_}, ::testing::ExitedWithCode(1),
                "trace region 'tail' is not 4 KB-aligned");
}

} // namespace
} // namespace tmcc
