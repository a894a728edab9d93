/**
 * @file
 * The two prefetchers of Table III: next-line with automatic turn-off
 * (L1, L2) and a stride prefetcher (L1 degree 2, L2 degree 4).
 *
 * Prefetchers observe demand accesses and propose block addresses to
 * fill.  Usefulness tracking drives the next-line auto turn-off: when
 * too few prefetched lines are referenced before eviction, the
 * prefetcher disables itself for a window.
 *
 * The observe paths are `observeT<Sink>` member templates defined
 * inline so the access path appends into fixed-capacity sinks without
 * virtual dispatch.  The stride streams live in flat arrays (no
 * hashing) — with unique lastUse stamps the LRU victim is unique, so
 * eviction is bit-identical to the old map-based scan.
 */

#ifndef TMCC_CACHE_PREFETCHER_HH
#define TMCC_CACHE_PREFETCHER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/simd.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace tmcc
{

/**
 * Shared usefulness/issue accounting.  Each prefetcher's
 * `observeT(addr, was_miss, out)` observes a demand access (hit or
 * miss) and appends proposed block addresses to `out`.
 */
class Prefetcher : public Stated
{
  public:
    /** Credit: a previously prefetched block was actually used. */
    void
    markUseful()
    {
        useful_.inc();
    }

    std::uint64_t issued() const { return issued_.value(); }
    std::uint64_t useful() const { return useful_.value(); }

    void
    dumpStats(StatDump &dump, const std::string &prefix) const override
    {
        dump.set(prefix + ".issued", issued_.value());
        dump.set(prefix + ".useful", useful_.value());
    }

  protected:
    Counter issued_, useful_;
};

/** Next-line prefetcher with automatic turn-off. */
class NextLinePrefetcher : public Prefetcher
{
  public:
    /**
     * @param check_window accuracy is evaluated every this many issues
     * @param min_accuracy below this the prefetcher turns off
     */
    NextLinePrefetcher(unsigned check_window = 256,
                       double min_accuracy = 0.20);

    template <class Sink>
    void
    observeT(Addr addr, bool was_miss, Sink &out)
    {
        ++observeCount_;

        // Re-enable after a cool-down window of observations.
        if (!enabled_) {
            if (observeCount_ >= offUntilIssueCount_) {
                enabled_ = true;
                issuedAtCheck_ = issued_.value();
                usefulAtCheck_ = useful_.value();
            } else {
                return;
            }
        }

        if (!was_miss)
            return;
        out.push_back(blockAlign(addr) + blockSize);
        issued_.inc();

        // Periodic accuracy check (automatic turn-off, Table III).
        const std::uint64_t window_issued =
            issued_.value() - issuedAtCheck_;
        if (window_issued >= checkWindow_) {
            const std::uint64_t window_useful =
                useful_.value() - usefulAtCheck_;
            const double accuracy =
                static_cast<double>(window_useful) /
                static_cast<double>(window_issued);
            if (accuracy < minAccuracy_) {
                enabled_ = false;
                offUntilIssueCount_ = observeCount_ + 4 * checkWindow_;
            }
            issuedAtCheck_ = issued_.value();
            usefulAtCheck_ = useful_.value();
        }
    }

    bool enabled() const { return enabled_; }

  private:
    unsigned checkWindow_;
    double minAccuracy_;
    bool enabled_ = true;
    std::uint64_t issuedAtCheck_ = 0;
    std::uint64_t usefulAtCheck_ = 0;
    std::uint64_t offUntilIssueCount_ = 0;
    std::uint64_t observeCount_ = 0;
};

/** Per-stream stride prefetcher keyed by 4KB region. */
class StridePrefetcher : public Prefetcher
{
  public:
    explicit StridePrefetcher(unsigned degree, unsigned streams = 16);

    template <class Sink>
    void
    observeT(Addr addr, bool was_miss, Sink &out)
    {
        const Addr page = pageNumber(addr);
        const Addr block = blockAlign(addr);

        // One fused vector pass: find the stream for `page` and the
        // first free slot in case it is missing (only consulted on a
        // miss, so fusing matches the old early-exit scan exactly).
        std::uint64_t match, inv;
        Probe::eqMask2(pages_.data(), wstride_, page, invalidAddr,
                       match, inv);
        const std::size_t hit =
            match ? simd::firstWay(match) : npos;
        const std::size_t free_slot =
            inv ? simd::firstWay(inv) : npos;

        if (hit == npos) {
            // Evict the least recently used stream if at capacity.
            const std::size_t slot =
                free_slot != npos ? free_slot : lruSlot();
            pages_[slot] = page;
            lastAddr_[slot] = block;
            stride_[slot] = 0;
            confidence_[slot] = 0;
            lastUse_[slot] = ++useClock_;
            return;
        }

        const std::size_t s = hit;
        lastUse_[s] = ++useClock_;
        const std::int64_t stride =
            static_cast<std::int64_t>(block) -
            static_cast<std::int64_t>(lastAddr_[s]);
        if (stride == 0)
            return;
        if (stride == stride_[s]) {
            confidence_[s] = std::min(confidence_[s] + 1, 4u);
        } else {
            stride_[s] = stride;
            confidence_[s] = 1;
        }
        lastAddr_[s] = block;

        // Issue only when the stream advances past the cached frontier
        // (a demand miss); hits mean the prefetcher is already ahead.
        if (confidence_[s] >= 2 && was_miss) {
            for (unsigned d = 1; d <= degree_; ++d) {
                const std::int64_t target =
                    static_cast<std::int64_t>(block) +
                    stride * static_cast<std::int64_t>(d);
                if (target < 0)
                    break;
                out.push_back(static_cast<Addr>(target));
                issued_.inc();
            }
        }
    }

  private:
    static constexpr std::size_t npos = ~static_cast<std::size_t>(0);

    /** Occupied slot with the smallest lastUse (stamps are unique). */
    std::size_t
    lruSlot() const
    {
        return Probe::minIndex(lastUse_.data(), wstride_);
    }

    using Probe = simd::Active;

    /** Padding-slot page key: matches no page, never looks free. */
    static constexpr Addr padPage = invalidAddr ^ 1;

    unsigned degree_;
    unsigned wstride_; //!< stream count padded to the vector width
    std::uint64_t useClock_ = 0;

    // Structure-of-arrays streams, padded to the vector width (padding
    // slots hold padPage / all-ones lastUse and are never chosen);
    // pages_ == invalidAddr marks a free slot (page numbers are small,
    // never all-ones).
    std::vector<Addr> pages_;
    std::vector<Addr> lastAddr_;
    std::vector<std::int64_t> stride_;
    std::vector<unsigned> confidence_;
    std::vector<std::uint64_t> lastUse_;
};

} // namespace tmcc

#endif // TMCC_CACHE_PREFETCHER_HH
