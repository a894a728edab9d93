/**
 * @file
 * Chrome trace-event / Perfetto-compatible tracer.
 *
 * Components emit *complete* ("X"), *instant* ("i"), *counter* ("C")
 * and *metadata* ("M") events into a process-wide Tracer; on finish()
 * the buffered events are sorted by timestamp and written as one
 * `{"traceEvents": [...]}` JSON document that chrome://tracing and
 * ui.perfetto.dev load directly.
 *
 * Design constraints, in order:
 *
 *   1. Near-zero overhead when disabled.  Instrumentation sites guard
 *      on `Tracer::active()` -- a single relaxed atomic load -- and
 *      build no strings, take no locks and touch no memory when it
 *      returns nullptr.  Tracing never feeds back into simulated
 *      timing or statistics: it only *reads* state.
 *   2. Safe under the parallel SimRunner.  Event append takes a mutex;
 *      each System claims its own `pid` track via allocTrack() so
 *      concurrent simulations land on separate Perfetto process rows.
 *   3. Bounded memory.  The buffer caps at `maxEvents`; beyond it
 *      events are counted as dropped and reported in the trace
 *      metadata rather than silently lost.
 *
 * Timestamps are simulation nanoseconds for in-System events (the
 * current-pid track is set while System::setup and System::measure
 * run) and wall-clock nanoseconds since tracer creation for host-side
 * events (SimRunner worker jobs, pid 0).  The two timebases share a file but
 * not a track, so Perfetto renders both coherently.
 */

#ifndef TMCC_COMMON_TRACE_HH
#define TMCC_COMMON_TRACE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace tmcc
{

// tid conventions within a System's pid track: core events use the
// core number; DRAM channels use dramTidBase + flat channel index;
// background engines (the compress-side Deflate ASIC) use
// backgroundTid.  Keeping these disjoint gives each activity its own
// Perfetto thread row.
inline constexpr std::uint32_t dramTidBase = 64;
inline constexpr std::uint32_t backgroundTid = 255;

// On the host track (pid 0), the wall-clock setup phases of the System
// with track p go to tid setupTidBase + p, clear of SimRunner's job
// rows (tid = job index).
inline constexpr std::uint32_t setupTidBase = 1u << 16;

class Tracer
{
  public:
    /** Events buffered before new arrivals are dropped (counted). */
    static constexpr std::size_t defaultMaxEvents = 8'000'000;

    explicit Tracer(std::string path,
                    std::size_t max_events = defaultMaxEvents);

    /** Writes the file if finish() was not called explicitly. */
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    // --- global registration -------------------------------------

    /** The process-wide tracer, or nullptr when tracing is off. */
    static Tracer *active()
    {
        return activeTracer_.load(std::memory_order_relaxed);
    }

    static void setActive(Tracer *t)
    {
        activeTracer_.store(t, std::memory_order_release);
    }

    /** The pid (Perfetto process track) of the current thread's
     * enclosing System::setup or System::measure, 0 outside one. */
    static std::uint32_t currentPid() { return tlsPid_; }

    /** RAII: route this thread's events to `pid` while in scope. */
    class PidScope
    {
      public:
        explicit PidScope(std::uint32_t pid) : prev_(tlsPid_)
        {
            tlsPid_ = pid;
        }
        ~PidScope() { tlsPid_ = prev_; }
        PidScope(const PidScope &) = delete;
        PidScope &operator=(const PidScope &) = delete;

      private:
        std::uint32_t prev_;
    };

    /** Claim a fresh pid track (1, 2, ...; 0 is the host track). */
    std::uint32_t allocTrack()
    {
        return trackCounter_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    // --- event emission ------------------------------------------

    /**
     * A slice with a duration ("X").  `name` and `cat` must be string
     * literals (stored by pointer).  `args_json` is an optional
     * pre-escaped JSON object body, e.g. "\"fetches\":4".
     */
    void complete(const char *name, const char *cat, std::uint32_t tid,
                  double ts_ns, double dur_ns,
                  std::string args_json = std::string());

    /** A zero-duration marker ("i", thread scope). */
    void instant(const char *name, const char *cat, std::uint32_t tid,
                 double ts_ns, std::string args_json = std::string());

    /** A counter track sample ("C"). */
    void counter(const char *name, double ts_ns, double value);

    /** Name the process track `pid` (Perfetto row label). */
    void processName(std::uint32_t pid, const std::string &label);

    /** Wall-clock nanoseconds since tracer creation (host events). */
    double wallNs() const;

    // --- output --------------------------------------------------

    /**
     * Sort events by (timestamp, emission order) and write the JSON
     * document.  Returns false (after a warn) if the file cannot be
     * written.  Idempotent; the destructor calls it as a fallback.
     */
    bool finish();

    const std::string &path() const { return path_; }
    std::size_t eventCount() const;
    std::uint64_t droppedEvents() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

  private:
    struct Event
    {
        const char *name;
        const char *cat;
        char ph;
        std::uint32_t pid, tid;
        double tsNs;
        double durNs;   //!< "X" only
        double value;   //!< "C" only
        std::uint64_t seq;
        std::string args; //!< pre-escaped JSON object body (or label)
    };

    void append(Event e);

    static std::atomic<Tracer *> activeTracer_;
    static thread_local std::uint32_t tlsPid_;

    std::string path_;
    std::size_t maxEvents_;
    std::atomic<std::uint32_t> trackCounter_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::uint64_t wallEpochNs_;
    bool finished_ = false;

    mutable std::mutex mutex_;
    std::vector<Event> events_;
    std::uint64_t seq_ = 0;
};

} // namespace tmcc

#endif // TMCC_COMMON_TRACE_HH
