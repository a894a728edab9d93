/**
 * @file
 * Per-page compressibility profiles.
 *
 * The timing simulation tracks hundreds of thousands of pages; holding
 * 4KB of content per page is wasteful and unnecessary for timing, so
 * each data page carries a profile measured by running the *real*
 * compressors (src/compress) over representative generated content.
 * The profile stores everything the MC architectures need: packed sizes
 * under block-level compression and both Deflates, plus the token
 * statistics the ASIC timing model consumes.
 */

#ifndef TMCC_MC_PAGE_PROFILE_HH
#define TMCC_MC_PAGE_PROFILE_HH

#include <cstdint>

#include "common/types.hh"

namespace tmcc
{

/** Compressibility facts about one 4KB data page. */
struct PageProfile
{
    /** Best-of-4 block-level total (whole bytes per block), Compresso. */
    std::uint32_t blockBytes = pageSize;

    /** Memory-specialized Deflate size (bytes). */
    std::uint32_t deflateBytes = pageSize;

    /** RFC/gzip reference size (bytes). */
    std::uint32_t rfcBytes = pageSize;

    /** Timing-model inputs for Deflate. */
    std::uint32_t lzTokens = pageSize;
    bool huffmanUsed = true;

    /** Writeback volatility: probability a dirty eviction changes the
     * page's packed size enough to overflow its allocation. */
    double overflowP = 0.02;

    bool deflateIncompressible() const { return deflateBytes >= pageSize; }

    double
    deflateRatio() const
    {
        return static_cast<double>(pageSize) /
               static_cast<double>(deflateBytes);
    }

    double
    blockRatio() const
    {
        return static_cast<double>(pageSize) /
               static_cast<double>(blockBytes);
    }
};

/** Supplies the profile of any physical data page. */
class PageInfoProvider
{
  public:
    virtual ~PageInfoProvider() = default;
    virtual const PageProfile &profile(Ppn ppn) const = 0;
};

} // namespace tmcc

#endif // TMCC_MC_PAGE_PROFILE_HH
