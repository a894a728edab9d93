/**
 * @file
 * Translation lookaside buffer.  Per §VI the simulated system uses a
 * single-level TLB enlarged to 2048 entries so the hit rate matches a
 * real two-level design (AMD Zen 3-like total capacity); 2MB huge-page
 * entries are kept in the same structure at their own granularity.
 *
 * Entry metadata is structure-of-arrays on the common/simd.hh probe
 * engine, one row per set.  The VPN + valid/huge flags of an entry are
 * packed into a single 64-bit key (key = vpn << 2 | flags; the TLB is
 * the one structure whose keys need more than 32 bits), so a lookup is
 * one whole-set vector compare against the wanted key: flag equality
 * and tag equality in the same instruction, no separate flag bytes on
 * the hot path.  Recency is a one-byte rank per way (rank 0 = most
 * recently used), so the LRU update and the victim pick are single
 * byte-vector operations.  The scalar fallback of the primitives is
 * the oracle, so SIMD and scalar builds make bit-identical hit/victim
 * decisions.
 */

#ifndef TMCC_VM_TLB_HH
#define TMCC_VM_TLB_HH

#include <cstdint>
#include <vector>

#include "common/simd.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace tmcc
{

/** Set-associative TLB with LRU replacement. */
class Tlb : public Stated
{
  public:
    Tlb(unsigned entries = 2048, unsigned assoc = 8);

    /** Translate; returns true on hit and fills `ppn`. */
    bool
    lookup(Addr vaddr, Ppn &ppn)
    {
        const Vpn vpn = pageNumber(vaddr);
        // The huge-page probe can only hit if a huge entry was ever
        // installed; skipping it otherwise changes no state (a probe
        // that cannot match has no side effects).
        if (hit(vpn, false, ppn) || (anyHuge_ && hit(vpn, true, ppn))) {
            hits_.inc();
            return true;
        }
        misses_.inc();
        return false;
    }

    /** Install a 4KB translation. */
    void insert(Vpn vpn, Ppn ppn) { install(vpn, ppn, false); }

    /** Install a 2MB translation (vpn/ppn are 4KB numbers, aligned). */
    void insertHuge(Vpn vpn_base, Ppn ppn_base);

    void flush();

    /**
     * Hint the hardware prefetcher at the set(s) `vaddr` will probe.
     * The measured loop calls this for upcoming ring slots so the
     * key and rank rows are in flight before the lookup runs.
     */
    void
    prefetchSet(Addr vaddr) const
    {
        const std::size_t set = pageNumber(vaddr) & (sets_ - 1);
        simd::prefetchRow(&keys_[set * wstride_]);
        simd::prefetchRow(&ranks_[set * rstride_]);
        if (anyHuge_) {
            const Vpn hkey = pageNumber(vaddr) & ~hugeMask;
            simd::prefetchRow(&keys_[(hkey & (sets_ - 1)) * wstride_]);
        }
    }

    /** Test-only view of one entry's metadata (way < associativity). */
    struct WayView
    {
        Vpn vpn;
        Ppn ppn;
        unsigned rank; //!< recency rank, 0 = most recently used
        bool valid;
        bool huge;
    };

    WayView
    wayView(std::size_t set, unsigned way) const
    {
        const std::size_t e = set * wstride_ + way;
        return WayView{keys_[e] >> flagBits, ppns_[e],
                       ranks_[set * rstride_ + way],
                       (keys_[e] & Valid) != 0, (keys_[e] & Huge) != 0};
    }

    std::size_t numSets() const { return sets_; }
    unsigned associativity() const { return assoc_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    void dumpStats(StatDump &dump,
                   const std::string &prefix) const override;

  private:
    // Flag bits packed into the low bits of each entry key.
    enum : std::uint64_t
    {
        Valid = 1,
        Huge = 2,
    };
    static constexpr unsigned flagBits = 2;

    /**
     * Padding-way key: Valid bit set (so the invalid-way scan skips
     * it) with a VPN no probe can form — a 4KB want key has low bits
     * 01 and a huge want key's VPN is 512-aligned, so all-ones
     * matches neither.
     */
    static constexpr std::uint64_t padKey = ~std::uint64_t{0};

    using Probe = simd::Active;

    static constexpr Vpn hugeMask = (hugePageSize / pageSize) - 1;

    /**
     * Probe for the entry translating (vpn, huge).  On a hit it becomes
     * its set's most recently used and `ppn` gets the translation.
     */
    bool
    hit(Vpn vpn, bool huge, Ppn &ppn)
    {
        const Vpn key = huge ? (vpn & ~hugeMask) : vpn;
        const std::size_t set = key & (sets_ - 1);
        const std::uint64_t want =
            (key << flagBits) | Valid | (huge ? std::uint64_t{Huge} : std::uint64_t{0});
        const std::uint64_t m =
            Probe::eqMask(&keys_[set * wstride_], wstride_, want);
        if (!m)
            return false;
        const unsigned way = simd::firstWay(m);
        Probe::rankTouch(&ranks_[set * rstride_], assoc_, way);
        ppn = ppns_[set * wstride_ + way] + (huge ? (vpn & hugeMask) : 0);
        return true;
    }

    void
    install(Vpn vpn, Ppn ppn, bool huge)
    {
        const std::size_t set = vpn & (sets_ - 1);
        const std::size_t base = set * wstride_;
        const std::uint64_t want =
            (vpn << flagBits) | Valid | (huge ? std::uint64_t{Huge} : std::uint64_t{0});
        // The historical scalar scan stopped at the first way that
        // matched exactly (refresh) or was invalid (victim), else
        // took the LRU way; the mask math preserves that order.
        // Invalid entries have the Valid bit clear; padding keys keep
        // it set so they never surface here.
        const std::uint64_t match =
            Probe::eqMask(&keys_[base], wstride_, want);
        const std::uint64_t inv =
            Probe::eqMaskAnd(&keys_[base], wstride_, Valid, 0);
        const unsigned way =
            (match | inv)
                ? simd::firstWay(match | inv)
                : Probe::rankOldest(&ranks_[set * rstride_], assoc_);
        keys_[base + way] = want;
        ppns_[base + way] = ppn;
        Probe::rankTouch(&ranks_[set * rstride_], assoc_, way);
        anyHuge_ = anyHuge_ || huge;
    }

    unsigned sets_;
    unsigned assoc_;
    unsigned wstride_; //!< assoc_ padded to the u64 vector width
    unsigned rstride_; //!< assoc_ padded to whole 16-byte rank rows
    bool anyHuge_ = false; //!< a huge entry was installed since flush

    // Structure-of-arrays entry metadata, flattened per set: keys_ and
    // ppns_ are sets_ x wstride_ (padding ways carry padKey and are
    // never chosen), ranks_ is sets_ x rstride_ (padding bytes hold
    // simd::padRank).
    std::vector<std::uint64_t> keys_;
    std::vector<Ppn> ppns_;
    std::vector<std::uint8_t> ranks_;

    Counter hits_, misses_;
};

} // namespace tmcc

#endif // TMCC_VM_TLB_HH
