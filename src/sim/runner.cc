#include "sim/runner.hh"

#include <atomic>
#include <string>
#include <thread>

#include "common/cli.hh"
#include "common/parallel.hh"
#include "common/trace.hh"
#include "sim/system.hh"

namespace tmcc
{

namespace
{

// Process-wide phase-split accumulators (nanoseconds as integers so
// plain atomics suffice).
std::atomic<std::uint64_t> setupNsTotal{0};
std::atomic<std::uint64_t> measureNsTotal{0};
std::atomic<std::uint64_t> runsTotal{0};
std::atomic<unsigned> jobsMax{0};

} // namespace

SimRunner::PhaseTotals
SimRunner::phaseTotals()
{
    PhaseTotals t;
    t.setupSeconds = static_cast<double>(setupNsTotal.load()) * 1e-9;
    t.measureSeconds =
        static_cast<double>(measureNsTotal.load()) * 1e-9;
    t.runs = runsTotal.load();
    t.jobs = jobsMax.load();
    return t;
}

SimRunner::SimRunner(unsigned jobs)
    : jobs_(jobs ? jobs : defaultJobs())
{}

unsigned
SimRunner::defaultJobs()
{
    if (const auto jobs = cli::envNumber<unsigned>("TMCC_JOBS", 1))
        return *jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::vector<SimResult>
SimRunner::run(const std::vector<SimConfig> &configs) const
{
    std::vector<SimResult> results(configs.size());
    if (configs.empty())
        return results;

    auto run_one = [&](std::size_t i) {
        Tracer *tr = Tracer::active();
        const double t0 = tr ? tr->wallNs() : 0.0;
        System sys(configs[i]);
        results[i] = sys.measure();
        setupNsTotal.fetch_add(static_cast<std::uint64_t>(
            results[i].setupSeconds * 1e9));
        measureNsTotal.fetch_add(static_cast<std::uint64_t>(
            results[i].measureSeconds * 1e9));
        runsTotal.fetch_add(1);
        if (tr != nullptr) {
            // Host track (pid 0), wall-clock timebase: one slice per
            // worker job, labelled with the config it ran.
            Tracer::PidScope host_scope(0);
            tr->complete("sim_job", "runner",
                         static_cast<std::uint32_t>(i), t0,
                         tr->wallNs() - t0,
                         "\"workload\":\"" + configs[i].workload +
                             "\",\"arch\":\"" +
                             archName(configs[i].arch) +
                             "\",\"index\":" + std::to_string(i));
        }
    };

    // phaseTotals().jobs: the most workers any batch ran on.
    const unsigned workers = parallelWorkers(configs.size(), jobs_);
    unsigned seen = jobsMax.load();
    while (seen < workers && !jobsMax.compare_exchange_weak(seen, workers))
        ;

    // Results land by submission index, so the output order (and
    // content -- every System is self-contained and seeded from its
    // config alone) is identical to the serial loop.
    parallelFor(
        configs.size(), [&](std::size_t i, unsigned) { run_one(i); },
        jobs_);
    return results;
}

std::vector<SimResult>
runConfigs(const std::vector<SimConfig> &configs, unsigned jobs)
{
    return SimRunner(jobs).run(configs);
}

} // namespace tmcc
