/**
 * @file
 * SimRunner: runs a batch of independent simulations on a worker-thread
 * pool (common/parallel.hh's parallelFor).
 *
 * Every experiment harness in bench/ sweeps a grid of SimConfigs whose
 * runs share nothing (each System owns its DRAM, caches, workloads and
 * RNG streams), so the grid is embarrassingly parallel.  SimRunner
 * dispatches the batch over N threads and returns results in submission
 * order; with the same configs the results are bit-identical to running
 * the batch serially.
 *
 * The worker count comes from the TMCC_JOBS environment variable when
 * set (a positive integer), else from std::thread::hardware_concurrency;
 * either way no more workers run than the host has hardware threads.
 * Each System's own setup threads run inline inside a worker.
 */

#ifndef TMCC_SIM_RUNNER_HH
#define TMCC_SIM_RUNNER_HH

#include <vector>

#include "sim/sim_config.hh"
#include "sim/sim_result.hh"

namespace tmcc
{

class SimRunner
{
  public:
    /** `jobs` = worker threads; 0 = defaultJobs(). */
    explicit SimRunner(unsigned jobs = 0);

    /**
     * Process-wide setup/measured wall-clock totals across every run
     * dispatched through SimRunner (the BenchReport phase split), and
     * the most worker threads any one run() used.
     */
    struct PhaseTotals
    {
        double setupSeconds = 0.0;
        double measureSeconds = 0.0;
        std::uint64_t runs = 0;
        unsigned jobs = 0;
    };
    static PhaseTotals phaseTotals();

    /**
     * TMCC_JOBS if set (anything but a positive integer that fits
     * `unsigned` exits with an error naming it), else
     * hardware_concurrency, else 1.
     */
    static unsigned defaultJobs();

    unsigned jobs() const { return jobs_; }

    /**
     * Run every config and return the results in submission order.
     * Batches of one (or jobs() == 1) run inline on the caller's
     * thread.  Every config runs even when some throw; the exception
     * of the earliest-submitted one is then rethrown on the caller.
     */
    std::vector<SimResult> run(const std::vector<SimConfig> &configs) const;

  private:
    unsigned jobs_;
};

/** One-shot convenience: SimRunner(jobs).run(configs). */
std::vector<SimResult> runConfigs(const std::vector<SimConfig> &configs,
                                  unsigned jobs = 0);

} // namespace tmcc

#endif // TMCC_SIM_RUNNER_HH
