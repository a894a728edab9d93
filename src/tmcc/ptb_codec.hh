/**
 * @file
 * Hardware PTB compression (Fig. 7, §V-A2/5).
 *
 * A 64B page table block holds eight 8B PTEs.  TMCC compresses a PTB
 * only when the 24 status bits are identical across all eight PTEs
 * (Fig. 6 shows this holds for ~99.9% of L1 PTBs): the status bits are
 * stored once and the leading identical PPN bits are truncated according
 * to installed physical memory.  The freed bits hold truncated CTEs —
 * log2(managedDram/4KB) bits each (§V-A5) — for the pages the PTEs
 * point at.
 *
 * With 1TB managed DRAM and 4x OS physical memory this yields exactly
 * 8 embeddable CTEs; 4TB -> 7; 16TB -> 6, reproducing §V-A5.
 */

#ifndef TMCC_TMCC_PTB_CODEC_HH
#define TMCC_TMCC_PTB_CODEC_HH

#include <array>
#include <cstdint>

#include "common/status.hh"
#include "common/types.hh"
#include "vm/pte.hh"

namespace tmcc
{

/** Geometry inputs for the PTB compression math. */
struct PtbCodecConfig
{
    /** DRAM managed by one MC (determines truncated-CTE width). */
    std::uint64_t managedDramBytes = 1ULL << 40; // 1TB

    /** OS physical pages (determines PPN width after truncation). */
    std::uint64_t physPages = 4 * ((1ULL << 40) / pageSize); // 4x DRAM
};

/** Result of analyzing one PTB for compression. */
struct PtbAnalysis
{
    bool compressible = false;
    unsigned cteSlots = 0;     //!< embeddable CTEs (up to 8)
    unsigned freedBits = 0;    //!< space freed by compression
    std::uint32_t statusBits = 0;
};

/** Contents recovered from a serialized compressed-PTB image. */
struct DecodedPtb
{
    std::uint32_t statusBits = 0;
    std::array<Ppn, ptesPerPtb> ppns{};
    std::array<bool, ptesPerPtb> hasCte{};
    std::array<std::uint64_t, ptesPerPtb> cte{};
};

/** The PTB compression rules. */
class PtbCodec
{
  public:
    explicit PtbCodec(const PtbCodecConfig &cfg = PtbCodecConfig{});

    /** Bits of one truncated CTE: log2(managedDram / 4KB). */
    unsigned truncatedCteBits() const { return cteBits_; }

    /** Bits a PPN needs given installed physical memory. */
    unsigned ppnBits() const { return ppnBits_; }

    /** CTE slots a compressible PTB can hold (§V-A5 formula). */
    unsigned maxSlots() const { return maxSlots_; }

    /**
     * Analyze the eight PTEs of a PTB.  Compressible iff the status
     * bits are identical across all eight entries (present or not).
     */
    PtbAnalysis analyze(const std::uint64_t *ptes) const;

    /**
     * Serialize a compressible PTB (Fig. 7c layout: shared status once,
     * eight truncated PPNs, then the freed bits holding embedded CTE
     * slots) into a 64B image.  The last byte is an 8-bit CRC over the
     * rest — the integrity budget a real PTB format could afford, so a
     * corrupt image is *usually* rejected at decode.  The PTB must
     * have analyzed compressible.
     */
    std::array<std::uint8_t, ptbBytes>
    encode(const std::uint64_t *ptes,
           const std::array<bool, ptesPerPtb> &has_cte,
           const std::array<std::uint64_t, ptesPerPtb> &cte) const;

    /**
     * Recover PTB contents from a 64B image, rejecting bad CRCs and
     * out-of-range PPN/CTE fields.
     */
    StatusOr<DecodedPtb>
    decode(const std::array<std::uint8_t, ptbBytes> &image) const;

    const PtbCodecConfig &config() const { return cfg_; }

  private:
    PtbCodecConfig cfg_;
    unsigned cteBits_;
    unsigned ppnBits_;
    unsigned maxSlots_;
};

} // namespace tmcc

#endif // TMCC_TMCC_PTB_CODEC_HH
