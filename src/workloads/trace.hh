/**
 * @file
 * Access-trace capture and replay.
 *
 * Any workload engine can be wrapped in a TraceRecorder to capture its
 * reference stream to a compact binary file (regions + accesses), and a
 * TraceWorkload replays such a file as a first-class engine — useful
 * for sharing reproducible inputs, diffing architectures on an
 * identical stream, or importing externally generated traces.
 *
 * File layout (little-endian):
 *   magic "TMCCTRC1"
 *   u32 region_count
 *   per region: u64 base, u64 bytes,
 *               u32 family, f64 structure, f64 repetition,
 *               u16 name_len, name bytes
 *   u64 access_count
 *   per access: u64 vaddr, u8 isWrite, u8 thinkCycles (saturated)
 */

#ifndef TMCC_WORKLOADS_TRACE_HH
#define TMCC_WORKLOADS_TRACE_HH

#include <memory>
#include <string>

#include "workloads/workload.hh"

namespace tmcc
{

/** Record a finite window of another engine's stream to a file. */
class TraceRecorder
{
  public:
    /** Capture `count` accesses of `source` into `path`. */
    static void record(Workload &source, const std::string &path,
                       std::uint64_t count);
};

/** Replay a recorded trace; loops when the stream is exhausted. */
class TraceWorkload : public Workload
{
  public:
    explicit TraceWorkload(const std::string &path);

    const std::string &name() const override { return name_; }
    const std::vector<WlRegion> &regions() const override
    {
        return regions_;
    }
    MemAccess next() override;

    std::uint64_t accessCount() const { return accesses_.size(); }

  private:
    std::string name_;
    std::vector<WlRegion> regions_;
    std::vector<MemAccess> accesses_;
    std::size_t cursor_ = 0;
};

} // namespace tmcc

#endif // TMCC_WORKLOADS_TRACE_HH
