/**
 * @file
 * Compression Translation Entries — the hardware-managed physical→DRAM
 * translations at the heart of the paper (§II, Fig. 13).
 *
 * TMCC's page-level CTE is 8 bytes:
 *   - the DRAM frame (or sub-chunk) the page currently occupies,
 *   - location level (ML1 / ML2),
 *   - isIncompressible (§IV-B).
 *
 * The CTE's 32-bit vector of which adjacent-block pairs use the
 * compressed-PTB encoding (§V-A4) is not modelled: no simulated result
 * depends on it.
 *
 * Compresso-style block-level metadata costs a full 64B per 4KB page
 * (per-block positions); it is modelled by BlockCte.
 */

#ifndef TMCC_MC_CTE_HH
#define TMCC_MC_CTE_HH

#include <cstdint>

#include "common/types.hh"

namespace tmcc
{

/** Which memory level a page currently lives in. */
enum class PageLevel : std::uint8_t
{
    ML1 = 0, //!< uncompressed 4KB DRAM frame
    ML2 = 1, //!< Deflate-compressed sub-chunk
};

/** TMCC page-level CTE (8 bytes in DRAM). */
struct PageCte
{
    std::uint64_t dramFrame = 0;  //!< 4KB DRAM frame (ML1) or sub-chunk
                                  //!< byte address >> 12 stand-in (ML2)
    Addr ml2Addr = 0;             //!< exact sub-chunk byte address (ML2)
    PageLevel level = PageLevel::ML1;
    bool valid = false;
    bool isIncompressible = false;

    /** The truncated CTE embedded into PTBs (§V-A5): frame bits only. */
    std::uint64_t
    truncated(unsigned bits_available) const
    {
        const std::uint64_t mask =
            bits_available >= 64 ? ~0ULL
                                 : ((1ULL << bits_available) - 1);
        return dramFrame & mask;
    }
};

/** Compresso-style block-level metadata for one 4KB page (64B). */
struct BlockCte
{
    bool valid = false;
    std::uint32_t chunks = 0;        //!< 512B chunks allocated
    Addr firstChunkAddr = 0;         //!< DRAM address of chunk 0
    std::uint16_t compressedBytes = 0; //!< current packed size
};

/** Size of the two CTE formats in DRAM, for reach computations. */
constexpr std::size_t pageCteBytes = 8;   //!< TMCC (§V-A6)
constexpr std::size_t blockCteBytes = 64; //!< Compresso (§III)

} // namespace tmcc

#endif // TMCC_MC_CTE_HH
