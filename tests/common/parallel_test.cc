/**
 * @file
 * parallelFor: every index runs exactly once, the pool never exceeds
 * min(n, hardware threads), nested pools run inline, and a worker's
 * exception reaches the caller.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hh"

namespace tmcc
{
namespace
{

unsigned
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce)
{
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<unsigned>> runs(n);
    parallelFor(n, [&](std::size_t i, unsigned) {
        runs[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(runs[i].load(), 1u) << "index " << i;
}

TEST(ParallelFor, ZeroIndicesRunNothing)
{
    bool ran = false;
    parallelFor(0, [&](std::size_t, unsigned) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ParallelFor, WorkerCountBoundedByIndicesAndHost)
{
    for (std::size_t n : {1u, 2u, 3u, 64u}) {
        SCOPED_TRACE("n = " + std::to_string(n));
        const unsigned workers = parallelWorkers(n);
        EXPECT_GE(workers, 1u);
        EXPECT_LE(workers, n);
        EXPECT_LE(workers, hardwareThreads());

        std::mutex m;
        std::set<std::thread::id> threads;
        std::set<unsigned> ids;
        parallelFor(n, [&](std::size_t, unsigned worker) {
            std::lock_guard<std::mutex> lock(m);
            threads.insert(std::this_thread::get_id());
            ids.insert(worker);
        });
        EXPECT_LE(threads.size(), workers);
        EXPECT_LT(*ids.rbegin(), workers);
    }
    EXPECT_LE(parallelWorkers(64, 2), 2u);
    EXPECT_EQ(parallelWorkers(64, 1), 1u);
}

TEST(ParallelFor, OneWorkerRunsInlineInOrder)
{
    std::vector<std::size_t> order;
    const auto caller = std::this_thread::get_id();
    parallelFor(
        5,
        [&](std::size_t i, unsigned worker) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            EXPECT_EQ(worker, 0u);
            order.push_back(i);
        },
        1);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, NestedPoolsRunInline)
{
    std::atomic<unsigned> nested_workers{0};
    std::atomic<unsigned> off_thread{0};
    parallelFor(4, [&](std::size_t, unsigned) {
        nested_workers.fetch_add(parallelWorkers(64));
        const auto outer = std::this_thread::get_id();
        parallelFor(8, [&](std::size_t, unsigned) {
            if (std::this_thread::get_id() != outer)
                off_thread.fetch_add(1);
        });
    });
    if (parallelWorkers(4) > 1) {
        EXPECT_EQ(nested_workers.load(), 4u);
    }
    EXPECT_EQ(off_thread.load(), 0u);
    // The scope ends with the pool: the caller may fan out again.
    EXPECT_EQ(parallelWorkers(64), std::min(64u, hardwareThreads()));
}

TEST(ParallelFor, WorkerExceptionRethrownOnCaller)
{
    constexpr std::size_t n = 100;
    std::vector<std::atomic<unsigned>> runs(n);
    try {
        parallelFor(n, [&](std::size_t i, unsigned) {
            runs[i].fetch_add(1);
            if (i == 7 || i == 3 || i == 60)
                throw std::runtime_error("index " + std::to_string(i));
        });
        FAIL() << "no exception reached the caller";
    } catch (const std::runtime_error &e) {
        // The lowest throwing index wins, whichever worker ran it.
        EXPECT_EQ(std::string(e.what()), "index 3");
    }
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(runs[i].load(), 1u) << "index " << i;
}

} // namespace
} // namespace tmcc
