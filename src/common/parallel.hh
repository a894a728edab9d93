/**
 * @file
 * parallelFor: the simulator's one host-thread pool shape.
 *
 * Indices are claimed from a shared atomic counter, so uneven tasks
 * balance themselves, and every index runs exactly once.  The pool
 * has min(n, hardware threads, max_workers) workers, the caller
 * being one of them; with a single worker everything runs inline on
 * the caller.  A parallelFor called from inside another one's worker
 * also runs inline, so nested pools (a System's setup inside a
 * SimRunner job) never put more threads on the host than it has.
 *
 * Callers that keep per-worker state (codecs, counters) index it
 * by the worker number passed to `fn`, which is below
 * parallelWorkers(n).  Results must not depend on which worker ran
 * an index: that is what keeps every simulated result independent of
 * the host's thread count.
 */

#ifndef TMCC_COMMON_PARALLEL_HH
#define TMCC_COMMON_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace tmcc
{

namespace detail
{
/** True on a thread while it works for a parallelFor. */
inline thread_local bool inParallelWorker = false;

/** Marks the current thread as a parallelFor worker while in scope. */
class ParallelWorkerScope
{
  public:
    ParallelWorkerScope() : prev_(inParallelWorker)
    {
        inParallelWorker = true;
    }
    ~ParallelWorkerScope() { inParallelWorker = prev_; }
    ParallelWorkerScope(const ParallelWorkerScope &) = delete;
    ParallelWorkerScope &operator=(const ParallelWorkerScope &) = delete;

  private:
    bool prev_;
};
} // namespace detail

/**
 * Workers a parallelFor over `n` indices uses: min(n, hardware
 * threads, `max_workers` when nonzero), at least 1, and exactly 1
 * inside another parallelFor's worker.
 */
inline unsigned
parallelWorkers(std::size_t n, unsigned max_workers = 0)
{
    if (detail::inParallelWorker || n <= 1)
        return 1;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned cap = max_workers ? std::min(hw, max_workers) : hw;
    return static_cast<unsigned>(std::min<std::size_t>(n, cap));
}

/**
 * Run fn(i, worker) for every i in [0, n), on parallelWorkers(n,
 * max_workers) workers.  Every index runs even when some throw; the
 * exception of the lowest throwing index is then rethrown on the
 * caller.
 */
template <class Fn>
void
parallelFor(std::size_t n, Fn &&fn, unsigned max_workers = 0)
{
    const unsigned workers = parallelWorkers(n, max_workers);
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::size_t error_index = n;
    std::exception_ptr error;
    auto work = [&](unsigned worker) {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
            try {
                fn(i, worker);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (i < error_index) {
                    error_index = i;
                    error = std::current_exception();
                }
            }
        }
    };

    if (workers <= 1) {
        work(0);
    } else {
        detail::ParallelWorkerScope scope;
        std::vector<std::thread> pool;
        pool.reserve(workers - 1);
        for (unsigned w = 1; w < workers; ++w) {
            try {
                pool.emplace_back([&work, w] {
                    detail::ParallelWorkerScope worker_scope;
                    work(w);
                });
            } catch (const std::system_error &) {
                break; // the workers already started take the rest
            }
        }
        work(0);
        for (auto &t : pool)
            t.join();
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace tmcc

#endif // TMCC_COMMON_PARALLEL_HH
