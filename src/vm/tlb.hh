/**
 * @file
 * Translation lookaside buffer.  Per §VI the simulated system uses a
 * single-level TLB enlarged to 2048 entries so the hit rate matches a
 * real two-level design (AMD Zen 3-like total capacity); 2MB huge-page
 * entries are kept in the same structure at their own granularity.
 *
 * Entry metadata is structure-of-arrays with each set padded to the
 * SIMD vector width, and the VPN + valid/huge flags of an entry are
 * packed into a single 64-bit key (key = vpn << 2 | flags).  A lookup
 * is then one whole-set vector compare against the wanted key through
 * the common/simd.hh probe primitives: flag equality and tag equality
 * in the same instruction, no separate flag bytes on the hot path.
 * The scalar fallback of those primitives is the oracle, so SIMD and
 * scalar builds make bit-identical hit/victim decisions.
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

        if (const std::size_t e = find(vpn, false); e != npos) {
            lru_[e] = ++lruClock_;
            ppn = ppns_[e];
            hits_.inc();
            return true;
        }
        // The huge-page probe can only hit if a huge entry was ever
        // installed; skipping it otherwise changes no state (a probe
        // that cannot match has no side effects).
        if (anyHuge_) {
            if (const std::size_t e = find(vpn, true); e != npos) {
                lru_[e] = ++lruClock_;
                ppn = ppns_[e] + (vpn & ((hugePageSize / pageSize) - 1));
                hits_.inc();
                return true;
            }
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
     * key/LRU rows are in flight before the lookup runs.
     */
    void
    prefetchSet(Addr vaddr) const
    {
        const Vpn vpn = pageNumber(vaddr);
        const std::size_t base = (vpn & (sets_ - 1)) * wstride_;
        simd::prefetchRow(&keys_[base]);
        simd::prefetchRow(&lru_[base]);
        if (anyHuge_) {
            const Vpn hkey = vpn & ~((hugePageSize / pageSize) - 1);
            simd::prefetchRow(&keys_[(hkey & (sets_ - 1)) * wstride_]);
        }
    }

    /** Test-only view of one entry's metadata (way < associativity). */
    struct WayView
    {
        Vpn vpn;
        Ppn ppn;
        std::uint64_t lru;
        bool valid;
        bool huge;
    };

    WayView
    wayView(std::size_t set, unsigned way) const
    {
        const std::size_t e = set * wstride_ + way;
        return WayView{keys_[e] >> flagBits, ppns_[e], lru_[e],
                       (keys_[e] & Valid) != 0, (keys_[e] & Huge) != 0};
    }

    std::size_t numSets() const { return sets_; }
    unsigned associativity() const { return assoc_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    void dumpStats(StatDump &dump,
                   const std::string &prefix) const override;

  private:
    static constexpr std::size_t npos = ~static_cast<std::size_t>(0);

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

    /** Index of the entry translating (vpn, huge), or npos. */
    std::size_t
    find(Vpn vpn, bool huge) const
    {
        const Vpn key =
            huge ? (vpn & ~((hugePageSize / pageSize) - 1)) : vpn;
        const std::size_t base = (key & (sets_ - 1)) * wstride_;
        const std::uint64_t want =
            (key << flagBits) | Valid | (huge ? std::uint64_t{Huge} : std::uint64_t{0});
        const std::uint64_t m =
            Probe::eqMask(&keys_[base], wstride_, want);
        return m ? base + simd::firstWay(m) : npos;
    }

    void
    install(Vpn vpn, Ppn ppn, bool huge)
    {
        const std::size_t base = (vpn & (sets_ - 1)) * wstride_;
        const std::uint64_t want =
            (vpn << flagBits) | Valid | (huge ? std::uint64_t{Huge} : std::uint64_t{0});
        // The historical scalar scan stopped at the first way that
        // matched exactly (refresh) or was invalid (victim), else
        // took the running LRU min; the mask math preserves that
        // order.  Invalid entries have the Valid bit clear; padding
        // keys keep it set so they never surface here.
        const std::uint64_t match =
            Probe::eqMask(&keys_[base], wstride_, want);
        const std::uint64_t inv =
            Probe::eqMaskAnd(&keys_[base], wstride_, Valid, 0);
        std::size_t victim;
        if (match | inv)
            victim = base + simd::firstWay(match | inv);
        else
            victim = base + Probe::minIndex(&lru_[base], wstride_);
        keys_[victim] = want;
        ppns_[victim] = ppn;
        lru_[victim] = ++lruClock_;
        anyHuge_ = anyHuge_ || huge;
    }

    unsigned sets_;
    unsigned assoc_;
    unsigned wstride_; //!< assoc_ padded to the vector width
    bool anyHuge_ = false; //!< a huge entry was installed since flush

    // Structure-of-arrays entry metadata, sets_ x wstride_ flattened
    // (padding ways carry padKey / all-ones LRU and are never chosen).
    std::vector<std::uint64_t> keys_;
    std::vector<Ppn> ppns_;
    std::vector<std::uint64_t> lru_;
    std::uint64_t lruClock_ = 0;

    Counter hits_, misses_;
};

} // namespace tmcc

#endif // TMCC_VM_TLB_HH
