/**
 * @file
 * A set-associative cache model with LRU replacement, dirty tracking and
 * the per-line "compressed" data bit TMCC adds for PTB-encoded lines
 * (§V-A4: "Every L2 and L3 cacheline has a new data bit to record
 * whether the cacheline is compressed").
 *
 * The model is functional (hits/misses/evictions); latency composition
 * is the pipeline's job.  State is structure-of-arrays (contiguous tag
 * / LRU / flag arrays), each set padded to the SIMD vector width, so
 * the tag probe and the LRU victim scan are whole-set vector compares
 * (common/simd.hh) that never straddle sets; the hot methods are
 * defined inline here so both the scalar and the batched access
 * kernels can fold them into their loops.  Every probe decision is
 * made by the simd::Ops primitives, whose scalar fallback is the
 * oracle — SIMD and scalar builds are bit-identical by construction
 * (tests/cache/probe_property_test.cc).
 */

#ifndef TMCC_CACHE_CACHE_HH
#define TMCC_CACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/simd.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace tmcc
{

/** State of one line leaving or probed in a cache. */
struct CacheLine
{
    Addr addr = invalidAddr; //!< block-aligned address
    bool dirty = false;
    bool compressed = false; //!< PTB-encoded payload (TMCC data bit)
};

/** Set-associative, LRU, write-back cache. */
class Cache : public Stated
{
  public:
    Cache(std::string name, std::size_t size_bytes, unsigned assoc);

    /**
     * Look up `addr` (any address; aligned internally).  On hit the LRU
     * state updates and `is_write` sets the dirty bit.  Returns hit.
     */
    bool
    access(Addr addr, bool is_write)
    {
        const std::size_t w = find(addr);
        if (w == npos) {
            misses_.inc();
            return false;
        }
        hits_.inc();
        lru_[w] = ++lruClock_;
        flags_[w] |= is_write ? Dirty : 0;
        return true;
    }

    /** Hit check without LRU/dirty side effects. */
    bool probe(Addr addr) const { return find(addr) != npos; }

    /**
     * Insert a line, returning the evicted victim if any.  The victim
     * is returned regardless of dirtiness; the caller decides whether a
     * clean eviction matters (exclusive hierarchies need it).
     */
    std::optional<CacheLine>
    insert(const CacheLine &line)
    {
        const Addr tag = blockAlign(line.addr);

        // Vector pass over the set: resident-way match, else the
        // victim in exactly the order the historical scalar scan
        // evaluated it (results depend on it): first invalid way
        // among 1..N-1, else way 0 when invalid, else the LRU way
        // (stamps unique, so the min is unique).
        const std::size_t base = setIndex(tag) * wstride_;
        std::uint64_t match, inv;
        Probe::eqMask2(&tags_[base], wstride_, tag, invalidAddr,
                       match, inv);

        // Refresh in place if already resident.
        if (match) {
            const std::size_t w = base + simd::firstWay(match);
            lru_[w] = ++lruClock_;
            flags_[w] = static_cast<std::uint8_t>(
                (flags_[w] & ~Compressed) |
                (line.dirty ? Dirty : 0) |
                (line.compressed ? Compressed : 0));
            return std::nullopt;
        }

        std::size_t victim;
        if (inv) {
            const std::uint64_t above0 = inv & ~1ULL;
            victim = base + (above0 ? simd::firstWay(above0) : 0);
        } else {
            victim = base + Probe::minIndex(&lru_[base], wstride_);
        }

        std::optional<CacheLine> evicted;
        if (flags_[victim] & Valid) {
            evictions_.inc();
            if (flags_[victim] & Dirty)
                dirtyEvictions_.inc();
            evicted = CacheLine{tags_[victim],
                                (flags_[victim] & Dirty) != 0,
                                (flags_[victim] & Compressed) != 0};
        }
        tags_[victim] = tag;
        flags_[victim] = static_cast<std::uint8_t>(
            Valid | (line.dirty ? Dirty : 0) |
            (line.compressed ? Compressed : 0));
        lru_[victim] = ++lruClock_;
        return evicted;
    }

    /**
     * Functional find-or-replace in a single pass over the set: the
     * fast-forward path of interval sampling keeps this cache warm
     * without paying the split access()+insert() bookkeeping.  On hit
     * the LRU refreshes and the dirty bit accumulates; on miss the
     * line replaces the victim (free way first, else LRU) and the
     * evicted line lands in `evicted` (addr == invalidAddr if none).
     * Returns hit.  Counts hits/misses/evictions like the split path.
     */
    bool
    touch(const CacheLine &line, CacheLine &evicted)
    {
        const Addr tag = blockAlign(line.addr);
        const std::size_t base = setIndex(tag) * wstride_;
        const std::uint64_t match =
            Probe::eqMask(&tags_[base], wstride_, tag);
        if (match) {
            const std::size_t w = base + simd::firstWay(match);
            hits_.inc();
            lru_[w] = ++lruClock_;
            flags_[w] |= line.dirty ? Dirty : 0;
            evicted.addr = invalidAddr;
            return true;
        }
        // Victim: earliest way minimizing (invalid ? 0 : lru), the
        // same replacement the historical running-min scan made
        // (padding ways carry an all-ones stamp and never win).
        const std::size_t victim =
            base + Probe::victimIndex(&tags_[base], &lru_[base],
                                      wstride_, invalidAddr);
        misses_.inc();
        if (tags_[victim] != invalidAddr) {
            evictions_.inc();
            if (flags_[victim] & Dirty)
                dirtyEvictions_.inc();
            evicted = CacheLine{tags_[victim],
                                (flags_[victim] & Dirty) != 0,
                                (flags_[victim] & Compressed) != 0};
        } else {
            evicted.addr = invalidAddr;
        }
        tags_[victim] = tag;
        flags_[victim] = static_cast<std::uint8_t>(
            Valid | (line.dirty ? Dirty : 0) |
            (line.compressed ? Compressed : 0));
        lru_[victim] = ++lruClock_;
        return false;
    }

    /** Remove a line (for exclusive-hierarchy promotion); returns it. */
    std::optional<CacheLine>
    extract(Addr addr)
    {
        const std::size_t w = find(addr);
        if (w == npos)
            return std::nullopt;
        CacheLine line{tags_[w], (flags_[w] & Dirty) != 0,
                       (flags_[w] & Compressed) != 0};
        flags_[w] &= static_cast<std::uint8_t>(~(Valid | Dirty));
        tags_[w] = invalidAddr;
        return line;
    }

    /** Invalidate without returning (back-invalidation). */
    void
    invalidate(Addr addr)
    {
        if (const std::size_t w = find(addr); w != npos) {
            flags_[w] &= static_cast<std::uint8_t>(~(Valid | Dirty));
            tags_[w] = invalidAddr;
        }
    }

    /** Read the compressed bit of a resident line. */
    bool
    isCompressed(Addr addr) const
    {
        const std::size_t w = find(addr);
        return w != npos && (flags_[w] & Compressed);
    }

    /** Set the compressed bit of a resident line. */
    void
    setCompressed(Addr addr, bool compressed)
    {
        if (const std::size_t w = find(addr); w != npos)
            flags_[w] = static_cast<std::uint8_t>(
                compressed ? (flags_[w] | Compressed)
                           : (flags_[w] & ~Compressed));
    }

    /** Mark a resident line dirty (e.g., lazily updated PTB). */
    void
    markDirty(Addr addr)
    {
        if (const std::size_t w = find(addr); w != npos)
            flags_[w] |= Dirty;
    }

    /**
     * Hint the hardware prefetcher at this address's set metadata (tag
     * + LRU rows).  The measured loop calls this for upcoming ring
     * slots so the probe's loads are in flight before the probe runs.
     */
    void
    prefetchSet(Addr addr) const
    {
        const std::size_t base = setIndex(addr) * wstride_;
        simd::prefetchRow(&tags_[base]);
        simd::prefetchRow(&lru_[base]);
    }

    /** Test-only view of one way's metadata (way < associativity). */
    struct WayView
    {
        Addr tag;
        std::uint64_t lru;
        bool valid;
        bool dirty;
        bool compressed;
    };

    WayView
    wayView(std::size_t set, unsigned way) const
    {
        const std::size_t w = set * wstride_ + way;
        return WayView{tags_[w], lru_[w], (flags_[w] & Valid) != 0,
                       (flags_[w] & Dirty) != 0,
                       (flags_[w] & Compressed) != 0};
    }

    std::size_t sizeBytes() const { return sets_ * assoc_ * blockSize; }
    unsigned associativity() const { return assoc_; }
    std::size_t numSets() const { return sets_; }
    const std::string &name() const { return name_; }

    void dumpStats(StatDump &dump,
                   const std::string &prefix) const override;

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

  private:
    static constexpr std::size_t npos = ~static_cast<std::size_t>(0);

    // Way metadata flag bits (flags_ bytes).
    enum : std::uint8_t
    {
        Valid = 1,
        Dirty = 2,
        Compressed = 4,
    };

    std::size_t
    setIndex(Addr addr) const
    {
        // Power-of-two set counts (every standard geometry) index with
        // a mask; odd geometries take the general modulo path.
        const auto blk = static_cast<std::size_t>(blockNumber(addr));
        return setsPow2_ ? (blk & setMask_) : (blk % sets_);
    }

    /**
     * Index of the way holding `addr`, or npos.  Invalid ways hold
     * the invalidAddr tag and padding ways a distinct non-aligned
     * sentinel, so neither can match a (block-aligned) probe tag and
     * the scan is one whole-set vector compare — this is the single
     * hottest operation in the simulator.  Tags are unique per set
     * (insert/touch refresh in place), so "first match" is "the
     * match".
     */
    std::size_t
    find(Addr addr) const
    {
        const Addr tag = blockAlign(addr);
        const std::size_t base = setIndex(addr) * wstride_;
        const std::uint64_t m =
            Probe::eqMask(&tags_[base], wstride_, tag);
        return m ? base + simd::firstWay(m) : npos;
    }

    using Probe = simd::Active;

    /** Padding-way tag: never block-aligned, never invalidAddr. */
    static constexpr Addr padTag = invalidAddr ^ 1;

    std::string name_;
    std::size_t sets_;
    bool setsPow2_ = true;   //!< shift-mask indexing fast path
    std::size_t setMask_ = 0; //!< sets_ - 1 when setsPow2_
    unsigned assoc_;
    unsigned wstride_;        //!< assoc_ padded to the vector width

    // Structure-of-arrays way metadata, sets_ x wstride_ flattened
    // (padding ways carry padTag / all-ones LRU and are never chosen).
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> lru_;
    std::vector<std::uint8_t> flags_;
    std::uint64_t lruClock_ = 0;

    Counter hits_, misses_, evictions_, dirtyEvictions_;
};

} // namespace tmcc

#endif // TMCC_CACHE_CACHE_HH
