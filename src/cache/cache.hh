/**
 * @file
 * A set-associative cache model with LRU replacement, dirty tracking and
 * the per-line "compressed" data bit TMCC adds for PTB-encoded lines
 * (§V-A4: "Every L2 and L3 cacheline has a new data bit to record
 * whether the cacheline is compressed").
 *
 * The model is functional (hits/misses/evictions); latency composition
 * is the pipeline's job.  Way metadata is structure-of-arrays, one row
 * per set: a 32-bit tag row holding block numbers, a flag row, and a
 * one-byte recency-rank row (rank 0 = most recently used).  Rows are
 * padded so the tag probe, the victim pick and the LRU update are each
 * a few native-width vector operations (common/simd.hh) that never read
 * past their set.  The cache remembers its last access()/probe() — the
 * set, the way holding the block and the set's free ways — so a fill,
 * flag read or extract of that same block skips the second scan of the
 * tag row.  Tags are 32-bit block numbers up to simd::maxKey, so
 * the cache holds addresses just under 2^38 (256 GiB); inserting a
 * higher one panics and looking one up misses.  The hot methods are inline so the access
 * path's member templates (cache/hierarchy.hh) fold them in.  Every
 * probe decision is made by the simd primitives, whose scalar fallback
 * is the oracle — SIMD and scalar builds are bit-identical by
 * construction (tests/cache/probe_property_test.cc).
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
        const SetProbe p = last_ = locate(blockNumber(addr));
        if (p.way == noWay) {
            misses_.inc();
            return false;
        }
        hits_.inc();
        touchRank(p.set, p.way);
        flags_[p.set * wstride_ + p.way] |= is_write ? Dirty : 0;
        return true;
    }

    /** Hit check without LRU/dirty side effects. */
    bool
    probe(Addr addr) const
    {
        last_ = locate(blockNumber(addr));
        return last_.way != noWay;
    }

    /**
     * Insert a line, returning the evicted victim if any.  The victim
     * is returned regardless of dirtiness; the caller decides whether a
     * clean eviction matters (exclusive hierarchies need it).
     */
    std::optional<CacheLine>
    insert(const CacheLine &line)
    {
        const std::uint32_t tag = keyOf(line.addr);
        // The fill of a block just looked up reuses that lookup's scan;
        // anything else takes one pass over the set now.
        const SetProbe p = last_.blk == tag ? last_ : locate(tag);
        const std::size_t set = p.set;
        const std::size_t base = set * wstride_;

        // Refresh in place if already resident.
        if (p.way != noWay) {
            const unsigned way = p.way;
            touchRank(set, way);
            std::uint8_t &f = flags_[base + way];
            f = static_cast<std::uint8_t>(
                (f & ~Compressed) | (line.dirty ? Dirty : 0) |
                (line.compressed ? Compressed : 0));
            return std::nullopt;
        }

        // The victim, in exactly the order the historical scalar scan
        // evaluated it (results depend on it): first invalid way among
        // 1..N-1, else way 0 when invalid, else the LRU way.
        const std::uint64_t inv = p.free;
        unsigned way;
        if (inv) {
            const std::uint64_t above0 = inv & ~1ULL;
            way = above0 ? simd::firstWay(above0) : 0;
        } else {
            way = Probe::rankOldest(&ranks_[set * rstride_], assoc_);
        }

        std::optional<CacheLine> evicted;
        if (flags_[base + way] & Valid) {
            evicted = lineAt(base + way);
            countEviction(*evicted);
        }
        fill(set, way, tag, line);
        return evicted;
    }

    /** Remove a line (for exclusive-hierarchy promotion); returns it. */
    std::optional<CacheLine>
    extract(Addr addr)
    {
        const std::size_t w = find(addr);
        if (w == npos)
            return std::nullopt;
        const CacheLine line = lineAt(w);
        clear(w);
        return line;
    }

    /** Invalidate without returning (back-invalidation). */
    void
    invalidate(Addr addr)
    {
        if (const std::size_t w = find(addr); w != npos)
            clear(w);
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
     * Hint the hardware prefetcher at this address's set metadata (the
     * tag and rank rows every probe reads).  The measured loop calls
     * this for upcoming ring slots so the probe's loads are in flight
     * before the probe runs.
     */
    void
    prefetchSet(Addr addr) const
    {
        const std::size_t set = setIndex(blockNumber(addr));
        simd::prefetchRow(&tags_[set * wstride_]);
        simd::prefetchRow(&ranks_[set * rstride_]);
    }

    /** Test-only view of one way's metadata (way < associativity). */
    struct WayView
    {
        Addr tag;      //!< block-aligned address; invalidAddr if free
        unsigned rank; //!< recency rank, 0 = most recently used
        bool valid;
        bool dirty;
        bool compressed;
    };

    WayView
    wayView(std::size_t set, unsigned way) const
    {
        const std::size_t w = set * wstride_ + way;
        const CacheLine line = lineAt(w);
        return WayView{line.addr, ranks_[set * rstride_ + way],
                       (flags_[w] & Valid) != 0, line.dirty,
                       line.compressed};
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
    static constexpr unsigned noWay = ~0u;
    static constexpr std::uint64_t noBlk = ~std::uint64_t{0};

    // Way metadata flag bits (flags_ bytes).
    enum : std::uint8_t
    {
        Valid = 1,
        Dirty = 2,
        Compressed = 4,
    };

    using Probe = simd::Active;

    std::size_t
    setIndex(std::uint64_t blk) const
    {
        // Power-of-two set counts (every standard geometry) index with
        // a mask; odd geometries take the general modulo path.
        const auto b = static_cast<std::size_t>(blk);
        return setsPow2_ ? (b & setMask_) : (b % sets_);
    }

    /** Tag of a line about to be installed; panics past the key range. */
    std::uint32_t
    keyOf(Addr addr) const
    {
        const std::uint64_t blk = blockNumber(addr);
        if (blk > simd::maxKey) [[unlikely]]
            keyOutOfRange(addr);
        return static_cast<std::uint32_t>(blk);
    }

    [[noreturn]] void keyOutOfRange(Addr addr) const;

    /**
     * Where block `blk` is: its set, the way holding it (noWay on a
     * miss) and, on a miss, the set's free ways — all a fill needs.
     */
    struct SetProbe
    {
        std::uint64_t blk = noBlk; //!< noBlk: describes nothing
        std::size_t set = 0;
        std::uint64_t free = 0;
        unsigned way = noWay;
    };

    /**
     * Scan the set of block `blk`.  Invalid and padding ways hold the
     * reserved keys above simd::maxKey, and a block past the key range
     * is reported absent before the compare (its low 32 bits could
     * name a resident block), so the lookup is one whole-set vector
     * compare — the single hottest operation in the simulator.  Only a
     * miss, which a fill may follow, also compares for free ways.  Tags
     * are unique per set (insert refreshes in place), so "first
     * match" is "the match".
     */
    SetProbe
    locate(std::uint64_t blk) const
    {
        if (blk > simd::maxKey) [[unlikely]]
            return SetProbe{};
        const std::size_t set = setIndex(blk);
        const std::uint32_t *row = &tags_[set * wstride_];
        const std::uint64_t m =
            Probe::eqMask(row, wstride_, static_cast<std::uint32_t>(blk));
        if (m)
            return SetProbe{blk, set, 0, simd::firstWay(m)};
        return SetProbe{blk, set,
                        Probe::eqMask(row, wstride_, simd::invalidKey),
                        noWay};
    }

    /**
     * Flat index of the way holding `addr`, or npos.  Reads last_ when
     * it names the block; otherwise scans without replacing last_, so
     * a victim's back-invalidation does not cost the fill that follows
     * its lookup.
     */
    std::size_t
    find(Addr addr) const
    {
        const std::uint64_t blk = blockNumber(addr);
        const SetProbe p = blk == last_.blk ? last_ : locate(blk);
        return p.way == noWay ? npos : p.set * wstride_ + p.way;
    }

    /** Flat way `w` took a new tag: drop last_ if it describes its set. */
    void
    tagsChanged(std::size_t w)
    {
        if (w - last_.set * wstride_ < wstride_)
            last_.blk = noBlk;
    }

    /** Make `way` of `set` the most recently used. */
    void
    touchRank(std::size_t set, unsigned way)
    {
        Probe::rankTouch(&ranks_[set * rstride_], assoc_, way);
    }

    /** The line held by flat way index `w` (addr invalidAddr if free). */
    CacheLine
    lineAt(std::size_t w) const
    {
        const std::uint32_t tag = tags_[w];
        return CacheLine{tag == simd::invalidKey
                             ? invalidAddr
                             : static_cast<Addr>(tag) << blockShift,
                         (flags_[w] & Dirty) != 0,
                         (flags_[w] & Compressed) != 0};
    }

    void
    countEviction(const CacheLine &victim)
    {
        evictions_.inc();
        if (victim.dirty)
            dirtyEvictions_.inc();
    }

    /** Install `line` (tag `tag`) in `way` of `set` as the MRU way. */
    void
    fill(std::size_t set, unsigned way, std::uint32_t tag,
         const CacheLine &line)
    {
        const std::size_t w = set * wstride_ + way;
        tags_[w] = tag;
        tagsChanged(w);
        flags_[w] = static_cast<std::uint8_t>(
            Valid | (line.dirty ? Dirty : 0) |
            (line.compressed ? Compressed : 0));
        touchRank(set, way);
    }

    /** Free flat way `w`; its rank and compressed bit stay stale. */
    void
    clear(std::size_t w)
    {
        flags_[w] &= static_cast<std::uint8_t>(~(Valid | Dirty));
        tags_[w] = simd::invalidKey;
        tagsChanged(w);
    }

    std::string name_;
    std::size_t sets_;
    bool setsPow2_ = true;   //!< shift-mask indexing fast path
    std::size_t setMask_ = 0; //!< sets_ - 1 when setsPow2_
    unsigned assoc_;
    unsigned wstride_; //!< assoc_ padded to the u32 vector width
    unsigned rstride_; //!< assoc_ padded to whole 16-byte rank rows

    // Structure-of-arrays way metadata, flattened per set: tags_ and
    // flags_ are sets_ x wstride_ (padding ways hold simd::padKey),
    // ranks_ is sets_ x rstride_ (padding bytes hold simd::padRank).
    std::vector<std::uint32_t> tags_;
    std::vector<std::uint8_t> flags_;
    std::vector<std::uint8_t> ranks_;

    /**
     * The last access() or probe().  Only tag writes to its set (fill,
     * clear) make it stale; ranks and flags are read live, so recency
     * updates and dirty/compressed marks leave it valid.
     */
    mutable SetProbe last_;

    Counter hits_, misses_, evictions_, dirtyEvictions_;
};

} // namespace tmcc

#endif // TMCC_CACHE_CACHE_HH
