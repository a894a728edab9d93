/**
 * @file
 * The hierarchy's record of prefetched blocks awaiting their first
 * demand use: one 64-bit word per physical frame, one bit per 64-byte
 * block (a 4 KiB frame holds 64 blocks), so a demand access and the
 * same-page prefetch proposals it raises share one word.
 *
 * The words live in fixed-size leaves allocated on the first note into
 * them, so a high physical address costs one 32 KiB leaf, not an array
 * reaching up to it.  The domain is the caches' tag range (block
 * numbers up to simd::maxKey): a block past it is never noted and
 * never consumed, as no cache can hold it (Cache::insert panics).
 */

#ifndef TMCC_CACHE_PREFETCH_BITMAP_HH
#define TMCC_CACHE_PREFETCH_BITMAP_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/simd.hh"

namespace tmcc
{

class PrefetchBitmap
{
  public:
    /** Frames per leaf: 4096 words cover 16 MiB of physical memory. */
    static constexpr unsigned leafShift = 12;
    static constexpr std::size_t leafWords = std::size_t{1} << leafShift;

    /** Record block number `blk` (no-op past the tag range). */
    void
    note(std::uint64_t blk)
    {
        if (blk > simd::maxKey)
            return;
        const std::size_t leaf = blk >> (6 + leafShift);
        if (leaf >= leaves_.size())
            leaves_.resize(leaf + 1);
        if (!leaves_[leaf])
            leaves_[leaf] = std::make_unique<std::uint64_t[]>(leafWords);
        std::uint64_t &w = leaves_[leaf][(blk >> 6) & (leafWords - 1)];
        live_ += (w >> (blk & 63) & 1) == 0;
        w |= std::uint64_t{1} << (blk & 63);
    }

    /** Forget `blk`; returns whether it was recorded.  Never allocates. */
    bool
    consume(std::uint64_t blk)
    {
        const std::uint64_t leaf = blk >> (6 + leafShift);
        if (leaf >= leaves_.size() || !leaves_[leaf])
            return false;
        std::uint64_t &w = leaves_[leaf][(blk >> 6) & (leafWords - 1)];
        const std::uint64_t bit = std::uint64_t{1} << (blk & 63);
        if (!(w & bit))
            return false;
        w &= ~bit;
        --live_;
        return true;
    }

    /** Recorded blocks. */
    std::size_t size() const { return live_; }

    /** Forget every block; allocated leaves stay for reuse. */
    void
    clear()
    {
        for (const auto &leaf : leaves_)
            if (leaf)
                std::fill_n(leaf.get(), leafWords, 0);
        live_ = 0;
    }

    /** Allocated leaves (tests). */
    std::size_t
    leaves() const
    {
        return leaves_.size() - static_cast<std::size_t>(std::count(
                                    leaves_.begin(), leaves_.end(), nullptr));
    }

  private:
    std::vector<std::unique_ptr<std::uint64_t[]>> leaves_;
    std::size_t live_ = 0;
};

} // namespace tmcc

#endif // TMCC_CACHE_PREFETCH_BITMAP_HH
