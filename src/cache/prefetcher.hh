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
 * virtual dispatch.  The stride streams are one fully associative set
 * on the common/simd.hh probe engine: a 32-bit page-number row for the
 * stream match and a one-byte recency-rank row for the LRU victim, so
 * stream lookup and replacement are native-width vector operations.
 * Page numbers are 32-bit keys up to simd::maxKey: observing an address
 * past that (just under 2^44, 16 TiB) panics.
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
        const std::uint64_t page_number = pageNumber(addr);
        if (page_number > simd::maxKey) [[unlikely]]
            pageOutOfRange(addr);
        const auto page = static_cast<std::uint32_t>(page_number);
        const Addr block = blockAlign(addr);

        // One fused vector pass: find the stream for `page` and the
        // first free slot in case it is missing (only consulted on a
        // miss, so fusing matches the old early-exit scan exactly).
        std::uint64_t match, inv;
        Probe::eqMask2(pages_.data(), wstride_, page, simd::invalidKey,
                       match, inv);

        if (!match) {
            // Evict the least recently used stream if at capacity.
            const unsigned slot =
                inv ? simd::firstWay(inv)
                    : Probe::rankOldest(ranks_.data(), streams_);
            pages_[slot] = page;
            lastAddr_[slot] = block;
            stride_[slot] = 0;
            confidence_[slot] = 0;
            Probe::rankTouch(ranks_.data(), streams_, slot);
            return;
        }

        const unsigned s = simd::firstWay(match);
        Probe::rankTouch(ranks_.data(), streams_, s);
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

    /** Test-only view of one stream slot (slot < stream count). */
    struct SlotView
    {
        Addr page;     //!< page number; invalidAddr if free
        unsigned rank; //!< recency rank, 0 = most recently used
    };

    SlotView
    slotView(unsigned slot) const
    {
        return SlotView{pages_[slot] == simd::invalidKey
                            ? invalidAddr
                            : Addr{pages_[slot]},
                        ranks_[slot]};
    }

  private:
    using Probe = simd::Active;

    [[noreturn]] void pageOutOfRange(Addr addr) const;

    unsigned degree_;
    unsigned streams_;
    unsigned wstride_; //!< stream count padded to the u32 vector width

    // Structure-of-arrays streams.  pages_ is padded to the vector
    // width with simd::padKey (never matches, never looks free) and
    // holds simd::invalidKey in a free slot; ranks_ is one rank row
    // padded to 16 bytes with simd::padRank.
    std::vector<std::uint32_t> pages_;
    std::vector<Addr> lastAddr_;
    std::vector<std::int64_t> stride_;
    std::vector<unsigned> confidence_;
    std::vector<std::uint8_t> ranks_;
};

} // namespace tmcc

#endif // TMCC_CACHE_PREFETCHER_HH
