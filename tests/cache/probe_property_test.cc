/**
 * @file
 * Structure-level probe properties: randomized op streams driven
 * through Cache, CteCache, Tlb and StridePrefetcher at every legal
 * associativity shape (including non-power-of-two way counts, which
 * exercise the padded tail lanes) are compared way-for-way against
 * reference models that replicate the historical scalar scan loops
 * verbatim, 64-bit LRU stamps included — same match order, same victim
 * tie-breaks, same stale state after invalidation.  The structures
 * keep one recency rank per way instead of a stamp, so recency is
 * compared as an order: among the valid ways of a set, a lower rank
 * must mean a later stamp.  Any divergence in the SIMD probe engine's
 * decisions shows up as a metadata mismatch within one operation of
 * the bug.
 *
 * Keys are 32 bits wide: installing one past the range must panic, and
 * probing one must miss rather than alias the resident key that shares
 * its low 32 bits.
 *
 * Unsupported geometry (more ways than the 64-bit way mask can hold)
 * must be rejected at construction: death tests pin that contract for
 * every structure built on the probe engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "cache/cache.hh"
#include "cache/prefetcher.hh"
#include "common/simd.hh"
#include "common/types.hh"
#include "mc/cte_cache.hh"
#include "vm/tlb.hh"

namespace tmcc
{
namespace
{

constexpr std::size_t npos = ~static_cast<std::size_t>(0);

/** Associativities under test; non-powers-of-two stress pad lanes. */
const unsigned kAssocs[] = {1, 2, 3, 4, 5, 7, 8, 12, 16, 24, 33, 64};

/** One valid way's recency: the DUT's rank and the reference stamp. */
struct Recency
{
    unsigned rank;
    std::uint64_t stamp;
};

/**
 * For every pair of valid ways in one set, the DUT's rank order must
 * be the reverse of the reference's stamp order (rank 0 = latest).
 */
void
expectRecencyOrder(const std::vector<Recency> &ways)
{
    for (std::size_t i = 0; i < ways.size(); ++i)
        for (std::size_t j = i + 1; j < ways.size(); ++j) {
            ASSERT_NE(ways[i].rank, ways[j].rank)
                << "valid ways " << i << " and " << j;
            ASSERT_EQ(ways[i].rank < ways[j].rank,
                      ways[i].stamp > ways[j].stamp)
                << "valid ways " << i << " and " << j;
        }
}

// ---------------------------------------------------------------------
// Cache vs the historical scalar loops.
// ---------------------------------------------------------------------

/** Way-for-way replica of Cache built from the old scalar scans. */
class RefCache
{
  public:
    struct Way
    {
        Addr tag = invalidAddr;
        std::uint64_t lru = 0;
        bool valid = false;
        bool dirty = false;
        bool compressed = false;
    };

    RefCache(std::size_t sets, unsigned assoc)
        : sets_(sets), assoc_(assoc), ways_(sets * assoc)
    {}

    bool
    access(Addr addr, bool is_write)
    {
        const std::size_t w = find(addr);
        if (w == npos)
            return false;
        ways_[w].lru = ++clock_;
        ways_[w].dirty |= is_write;
        return true;
    }

    void
    insert(const CacheLine &line, CacheLine &evicted)
    {
        const Addr tag = blockAlign(line.addr);
        const std::size_t base = setOf(tag) * assoc_;
        evicted.addr = invalidAddr;
        for (unsigned w = 0; w < assoc_; ++w) {
            Way &way = ways_[base + w];
            if (way.valid && way.tag == tag) {
                way.lru = ++clock_;
                way.dirty |= line.dirty;
                way.compressed = line.compressed;
                return;
            }
        }
        // Historical victim order: first invalid way among 1..N-1,
        // else way 0 when invalid, else the unique LRU minimum.
        std::size_t victim = npos;
        for (unsigned w = 1; w < assoc_; ++w)
            if (!ways_[base + w].valid) {
                victim = base + w;
                break;
            }
        if (victim == npos && !ways_[base].valid)
            victim = base;
        if (victim == npos) {
            victim = base;
            for (unsigned w = 1; w < assoc_; ++w)
                if (ways_[base + w].lru < ways_[victim].lru)
                    victim = base + w;
        }
        if (ways_[victim].valid)
            evicted = CacheLine{ways_[victim].tag, ways_[victim].dirty,
                                ways_[victim].compressed};
        ways_[victim] = Way{tag, ++clock_, true, line.dirty,
                            line.compressed};
    }

    void
    extract(Addr addr)
    {
        if (const std::size_t w = find(addr); w != npos) {
            // The real structure clears Valid|Dirty and the tag but
            // leaves the compressed bit and LRU stamp stale.
            ways_[w].valid = false;
            ways_[w].dirty = false;
            ways_[w].tag = invalidAddr;
        }
    }

    void
    setCompressed(Addr addr, bool compressed)
    {
        if (const std::size_t w = find(addr); w != npos)
            ways_[w].compressed = compressed;
    }

    void
    markDirty(Addr addr)
    {
        if (const std::size_t w = find(addr); w != npos)
            ways_[w].dirty = true;
    }

    const Way &way(std::size_t set, unsigned w) const
    {
        return ways_[set * assoc_ + w];
    }

  private:
    std::size_t
    setOf(Addr addr) const
    {
        return static_cast<std::size_t>(blockNumber(addr)) % sets_;
    }

    std::size_t
    find(Addr addr) const
    {
        const Addr tag = blockAlign(addr);
        const std::size_t base = setOf(addr) * assoc_;
        for (unsigned w = 0; w < assoc_; ++w)
            if (ways_[base + w].valid && ways_[base + w].tag == tag)
                return base + w;
        return npos;
    }

    std::size_t sets_;
    unsigned assoc_;
    std::vector<Way> ways_;
    std::uint64_t clock_ = 0;
};

void
expectCacheMatches(const Cache &dut, const RefCache &ref,
                   std::size_t sets, unsigned assoc)
{
    for (std::size_t s = 0; s < sets; ++s) {
        std::vector<Recency> recency;
        for (unsigned w = 0; w < assoc; ++w) {
            const auto v = dut.wayView(s, w);
            const auto &r = ref.way(s, w);
            ASSERT_EQ(v.valid, r.valid) << "set " << s << " way " << w;
            if (v.valid) {
                ASSERT_EQ(v.tag, r.tag) << "set " << s << " way " << w;
                ASSERT_EQ(v.dirty, r.dirty)
                    << "set " << s << " way " << w;
                ASSERT_EQ(v.compressed, r.compressed)
                    << "set " << s << " way " << w;
                recency.push_back({v.rank, r.lru});
            }
        }
        ASSERT_NO_FATAL_FAILURE(expectRecencyOrder(recency))
            << "set " << s;
    }
}

void
driveCache(std::size_t sets, unsigned assoc)
{
    SCOPED_TRACE("sets=" + std::to_string(sets) +
                 " assoc=" + std::to_string(assoc));
    Cache dut("dut", sets * assoc * blockSize, assoc);
    RefCache ref(sets, assoc);
    std::mt19937_64 rng(1000 + sets * 100 + assoc);

    // ~3x the capacity in distinct blocks forces constant eviction.
    const std::uint64_t blocks = sets * assoc * 3 + 1;
    for (int op = 0; op < 4000; ++op) {
        const Addr addr = (rng() % blocks) * blockSize + rng() % 64;
        const bool dirty = rng() % 2;
        const bool comp = rng() % 2;
        switch (rng() % 6) {
        case 0:
        case 1:
            ASSERT_EQ(dut.access(addr, dirty),
                      ref.access(addr, dirty));
            break;
        case 2:
        case 3: {
            CacheLine rev;
            const auto dev = dut.insert({addr, dirty, comp});
            ref.insert({addr, dirty, comp}, rev);
            ASSERT_EQ(dev.has_value(), rev.addr != invalidAddr);
            if (dev) {
                ASSERT_EQ(dev->addr, rev.addr);
                ASSERT_EQ(dev->dirty, rev.dirty);
                ASSERT_EQ(dev->compressed, rev.compressed);
            }
            break;
        }
        case 4:
            dut.invalidate(addr);
            ref.extract(addr);
            break;
        default:
            if (rng() % 2) {
                dut.setCompressed(addr, comp);
                ref.setCompressed(addr, comp);
            } else {
                dut.markDirty(addr);
                ref.markDirty(addr);
            }
            break;
        }
        expectCacheMatches(dut, ref, sets, assoc);
    }
}

TEST(ProbeProperty, CacheMatchesScalarReferenceAtEveryAssoc)
{
    for (unsigned assoc : kAssocs)
        driveCache(4, assoc);
}

TEST(ProbeProperty, CacheMatchesScalarReferenceNonPow2Sets)
{
    driveCache(3, 5);
    driveCache(7, 8);
}

// ---------------------------------------------------------------------
// CteCache vs the historical scalar loops.
// ---------------------------------------------------------------------

/** Replica of CteCache's old first-match-or-invalid install scan. */
class RefCteCache
{
  public:
    RefCteCache(std::size_t sets, unsigned assoc,
                unsigned pages_per_block)
        : sets_(sets), assoc_(assoc), ppb_(pages_per_block),
          tags_(sets * assoc, ~std::uint64_t{0}),
          lru_(sets * assoc, 0)
    {}

    bool
    lookup(Ppn ppn)
    {
        const std::uint64_t tag = ppn / ppb_;
        const std::size_t base = (tag % sets_) * assoc_;
        for (unsigned w = 0; w < assoc_; ++w)
            if (tags_[base + w] == tag) {
                lru_[base + w] = ++clock_;
                return true;
            }
        return false;
    }

    void
    insert(Ppn ppn)
    {
        const std::uint64_t tag = ppn / ppb_;
        const std::size_t base = (tag % sets_) * assoc_;
        // Stop at the first way that matches (refresh) or is invalid
        // (victim), in way order; else the unique LRU minimum.
        for (unsigned w = 0; w < assoc_; ++w) {
            if (tags_[base + w] == tag) {
                lru_[base + w] = ++clock_;
                return;
            }
            if (tags_[base + w] == ~std::uint64_t{0}) {
                tags_[base + w] = tag;
                lru_[base + w] = ++clock_;
                return;
            }
        }
        std::size_t victim = base;
        for (unsigned w = 1; w < assoc_; ++w)
            if (lru_[base + w] < lru_[victim])
                victim = base + w;
        tags_[victim] = tag;
        lru_[victim] = ++clock_;
    }

    void
    invalidate(Ppn ppn)
    {
        const std::uint64_t tag = ppn / ppb_;
        const std::size_t base = (tag % sets_) * assoc_;
        for (unsigned w = 0; w < assoc_; ++w)
            if (tags_[base + w] == tag)
                tags_[base + w] = ~std::uint64_t{0};
    }

    std::uint64_t tag(std::size_t s, unsigned w) const
    {
        return tags_[s * assoc_ + w];
    }
    std::uint64_t lru(std::size_t s, unsigned w) const
    {
        return lru_[s * assoc_ + w];
    }

  private:
    std::size_t sets_;
    unsigned assoc_;
    unsigned ppb_;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> lru_;
    std::uint64_t clock_ = 0;
};

TEST(ProbeProperty, CteCacheMatchesScalarReferenceAtEveryAssoc)
{
    constexpr std::size_t sets = 4;
    constexpr unsigned ppb = 8;
    for (unsigned assoc : kAssocs) {
        SCOPED_TRACE("assoc=" + std::to_string(assoc));
        CteCache dut(sets * assoc * blockSize, ppb, assoc);
        ASSERT_EQ(dut.numSets(), sets);
        RefCteCache ref(sets, assoc, ppb);
        std::mt19937_64 rng(2000 + assoc);

        const std::uint64_t pages = sets * assoc * ppb * 3 + 1;
        for (int op = 0; op < 4000; ++op) {
            const Ppn ppn = rng() % pages;
            switch (rng() % 4) {
            case 0:
            case 1:
                ASSERT_EQ(dut.lookup(ppn), ref.lookup(ppn));
                break;
            case 2:
                dut.insert(ppn);
                ref.insert(ppn);
                break;
            default:
                dut.invalidate(ppn);
                ref.invalidate(ppn);
                break;
            }
            for (std::size_t s = 0; s < sets; ++s) {
                std::vector<Recency> recency;
                for (unsigned w = 0; w < assoc; ++w) {
                    const auto v = dut.wayView(s, w);
                    ASSERT_EQ(v.valid,
                              ref.tag(s, w) != ~std::uint64_t{0});
                    if (v.valid) {
                        ASSERT_EQ(v.tag, ref.tag(s, w));
                        recency.push_back({v.rank, ref.lru(s, w)});
                    }
                }
                ASSERT_NO_FATAL_FAILURE(expectRecencyOrder(recency))
                    << "set " << s;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Tlb vs the historical scalar loops.
// ---------------------------------------------------------------------

/** Replica of the TLB's old per-way flag/tag scan. */
class RefTlb
{
  public:
    struct Way
    {
        Vpn vpn = 0;
        Ppn ppn = 0;
        std::uint64_t lru = 0;
        bool valid = false;
        bool huge = false;
    };

    RefTlb(std::size_t sets, unsigned assoc)
        : sets_(sets), assoc_(assoc), ways_(sets * assoc)
    {}

    bool
    lookup(Addr vaddr, Ppn &ppn)
    {
        const Vpn vpn = pageNumber(vaddr);
        if (const std::size_t e = find(vpn, false); e != npos) {
            ways_[e].lru = ++clock_;
            ppn = ways_[e].ppn;
            return true;
        }
        if (const std::size_t e = find(vpn, true); e != npos) {
            ways_[e].lru = ++clock_;
            ppn = ways_[e].ppn +
                  (vpn & ((hugePageSize / pageSize) - 1));
            return true;
        }
        return false;
    }

    void insert(Vpn vpn, Ppn ppn) { install(vpn, ppn, false); }
    void insertHuge(Vpn vpn, Ppn ppn) { install(vpn, ppn, true); }

    void
    flush()
    {
        // The real structure clears the flag bits only: VPN, PPN and
        // LRU stamps stay stale in place.
        for (auto &w : ways_) {
            w.valid = false;
            w.huge = false;
        }
    }

    const Way &way(std::size_t set, unsigned w) const
    {
        return ways_[set * assoc_ + w];
    }

  private:
    std::size_t
    find(Vpn vpn, bool huge) const
    {
        const Vpn key =
            huge ? (vpn & ~((hugePageSize / pageSize) - 1)) : vpn;
        const std::size_t base = (key & (sets_ - 1)) * assoc_;
        for (unsigned w = 0; w < assoc_; ++w) {
            const Way &way = ways_[base + w];
            if (way.valid && way.huge == huge && way.vpn == key)
                return base + w;
        }
        return npos;
    }

    void
    install(Vpn vpn, Ppn ppn, bool huge)
    {
        const std::size_t base = (vpn & (sets_ - 1)) * assoc_;
        // First way that matches the wanted (vpn, flags) key exactly
        // or is invalid, in way order; else the unique LRU minimum.
        std::size_t victim = npos;
        for (unsigned w = 0; w < assoc_; ++w) {
            const Way &way = ways_[base + w];
            if (!way.valid ||
                (way.huge == huge && way.vpn == vpn)) {
                victim = base + w;
                break;
            }
        }
        if (victim == npos) {
            victim = base;
            for (unsigned w = 1; w < assoc_; ++w)
                if (ways_[base + w].lru < ways_[victim].lru)
                    victim = base + w;
        }
        ways_[victim] = Way{vpn, ppn, ++clock_, true, huge};
    }

    std::size_t sets_;
    unsigned assoc_;
    std::vector<Way> ways_;
    std::uint64_t clock_ = 0;
};

TEST(ProbeProperty, TlbMatchesScalarReferenceAtEveryAssoc)
{
    constexpr std::size_t sets = 8;
    constexpr Vpn hugePages = hugePageSize / pageSize;
    for (unsigned assoc : kAssocs) {
        SCOPED_TRACE("assoc=" + std::to_string(assoc));
        Tlb dut(sets * assoc, assoc);
        RefTlb ref(sets, assoc);
        std::mt19937_64 rng(3000 + assoc);

        const Vpn vpns = sets * assoc * 3 + 1;
        for (int op = 0; op < 4000; ++op) {
            const Vpn vpn = rng() % vpns;
            switch (rng() % 8) {
            case 0:
            case 1:
            case 2: {
                const Addr vaddr = vpn * pageSize + rng() % pageSize;
                Ppn dp = 0, rp = 0;
                ASSERT_EQ(dut.lookup(vaddr, dp),
                          ref.lookup(vaddr, rp));
                ASSERT_EQ(dp, rp);
                break;
            }
            case 3:
            case 4:
            case 5:
                dut.insert(vpn, vpn + 7);
                ref.insert(vpn, vpn + 7);
                break;
            case 6: {
                const Vpn base = (rng() % 4) * hugePages;
                dut.insertHuge(base, base + 9);
                ref.insertHuge(base, base + 9);
                break;
            }
            default:
                if (rng() % 8 == 0) {
                    dut.flush();
                    ref.flush();
                }
                break;
            }
            for (std::size_t s = 0; s < sets; ++s) {
                std::vector<Recency> recency;
                for (unsigned w = 0; w < assoc; ++w) {
                    const auto v = dut.wayView(s, w);
                    const auto &r = ref.way(s, w);
                    ASSERT_EQ(v.valid, r.valid)
                        << "set " << s << " way " << w;
                    if (v.valid) {
                        ASSERT_EQ(v.vpn, r.vpn);
                        ASSERT_EQ(v.ppn, r.ppn);
                        ASSERT_EQ(v.huge, r.huge);
                        recency.push_back({v.rank, r.lru});
                    }
                }
                ASSERT_NO_FATAL_FAILURE(expectRecencyOrder(recency))
                    << "set " << s;
            }
        }
    }
}

// ---------------------------------------------------------------------
// StridePrefetcher vs the historical stamp-based stream table.
// ---------------------------------------------------------------------

/** Replica of the stride prefetcher's old scan over stamped streams. */
class RefStride
{
  public:
    struct Stream
    {
        Addr page = invalidAddr;
        Addr lastAddr = invalidAddr;
        std::int64_t stride = 0;
        unsigned confidence = 0;
        std::uint64_t lastUse = 0;
    };

    RefStride(unsigned degree, unsigned streams)
        : degree_(degree), streams_(streams)
    {}

    void
    observe(Addr addr, bool was_miss, std::vector<Addr> &out)
    {
        const Addr page = pageNumber(addr);
        const Addr block = blockAlign(addr);
        std::size_t hit = npos, free_slot = npos;
        for (std::size_t i = 0; i < streams_.size(); ++i) {
            if (streams_[i].page == page) {
                hit = i;
                break;
            }
            if (free_slot == npos && streams_[i].page == invalidAddr)
                free_slot = i;
        }
        if (hit == npos) {
            // Free slot first, else the unique least recently used.
            std::size_t slot = free_slot;
            if (slot == npos) {
                slot = 0;
                for (std::size_t i = 1; i < streams_.size(); ++i)
                    if (streams_[i].lastUse < streams_[slot].lastUse)
                        slot = i;
            }
            streams_[slot] = Stream{page, block, 0, 0, ++clock_};
            return;
        }
        Stream &s = streams_[hit];
        s.lastUse = ++clock_;
        const std::int64_t stride = static_cast<std::int64_t>(block) -
                                    static_cast<std::int64_t>(s.lastAddr);
        if (stride == 0)
            return;
        if (stride == s.stride) {
            s.confidence = std::min(s.confidence + 1, 4u);
        } else {
            s.stride = stride;
            s.confidence = 1;
        }
        s.lastAddr = block;
        if (s.confidence >= 2 && was_miss)
            for (unsigned d = 1; d <= degree_; ++d) {
                const std::int64_t target =
                    static_cast<std::int64_t>(block) +
                    stride * static_cast<std::int64_t>(d);
                if (target < 0)
                    break;
                out.push_back(static_cast<Addr>(target));
            }
    }

    const Stream &stream(unsigned i) const { return streams_[i]; }

  private:
    unsigned degree_;
    std::vector<Stream> streams_;
    std::uint64_t clock_ = 0;
};

TEST(ProbeProperty, StridePrefetcherMatchesStampReference)
{
    for (unsigned streams : {1u, 3u, 4u, 16u, 17u, 64u}) {
        SCOPED_TRACE("streams=" + std::to_string(streams));
        constexpr unsigned degree = 4;
        StridePrefetcher dut(degree, streams);
        RefStride ref(degree, streams);
        std::mt19937_64 rng(4000 + streams);

        // ~3x the stream count in pages forces constant eviction; each
        // page walks its own stride so streams gain confidence.
        const unsigned pages = streams * 3 + 1;
        std::vector<unsigned> offset(pages), step(pages);
        for (unsigned p = 0; p < pages; ++p)
            step[p] = 1 + static_cast<unsigned>(rng() % 3);
        for (int op = 0; op < 4000; ++op) {
            const unsigned p = static_cast<unsigned>(rng() % pages);
            offset[p] = rng() % 8 == 0
                            ? static_cast<unsigned>(rng() % blocksPerPage)
                            : (offset[p] + step[p]) % blocksPerPage;
            const Addr addr = (Addr{p} + 100) * pageSize +
                              offset[p] * blockSize + rng() % blockSize;
            const bool was_miss = rng() % 4 != 0;
            std::vector<Addr> dout, rout;
            dut.observeT(addr, was_miss, dout);
            ref.observe(addr, was_miss, rout);
            ASSERT_EQ(dout, rout) << "op " << op;

            std::vector<Recency> recency;
            for (unsigned i = 0; i < streams; ++i) {
                const auto v = dut.slotView(i);
                const auto &r = ref.stream(i);
                ASSERT_EQ(v.page, r.page) << "slot " << i;
                if (r.page != invalidAddr)
                    recency.push_back({v.rank, r.lastUse});
            }
            ASSERT_NO_FATAL_FAILURE(expectRecencyOrder(recency));
        }
    }
}

// ---------------------------------------------------------------------
// 32-bit keys: no truncation, ever.
// ---------------------------------------------------------------------

/** Block-number keys cover addresses below 2^38 (256 GiB). */
constexpr Addr kCacheKeySpan = Addr{1} << (32 + blockShift);

TEST(ProbeKeyRange, CacheProbeOfAliasedAddressMisses)
{
    Cache c("l2.0", 4 * 8 * blockSize, 8);
    const Addr a = 0x12340;
    const Addr alias = a + kCacheKeySpan;
    EXPECT_FALSE(c.insert({a, true, true}).has_value());
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(alias));
    EXPECT_FALSE(c.access(alias, true));
    EXPECT_FALSE(c.isCompressed(alias));
    EXPECT_FALSE(c.extract(alias).has_value());
    c.invalidate(alias);
    c.markDirty(alias);
    c.setCompressed(alias, false);
    // The resident line is untouched by every aliased call.
    EXPECT_TRUE(c.probe(a));
    EXPECT_TRUE(c.isCompressed(a));
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 1u);
    // invalidAddr itself is a probe like any other: a miss.
    EXPECT_FALSE(c.probe(invalidAddr));
    // The highest storable block still round-trips.
    const Addr top = kCacheKeySpan - 3 * blockSize;
    c.insert({top, false, false});
    EXPECT_TRUE(c.probe(top));
    EXPECT_FALSE(c.probe(top + blockSize));
}

TEST(ProbeKeyRange, CteCacheProbeOfAliasedBlockMisses)
{
    constexpr unsigned ppb = 8;
    CteCache cte(4 * 8 * blockSize, ppb, 8);
    const Ppn a = 0x777;
    const Ppn alias = a + (Ppn{1} << 32) * ppb;
    cte.insert(a);
    EXPECT_TRUE(cte.probe(a));
    EXPECT_FALSE(cte.probe(alias));
    EXPECT_FALSE(cte.lookup(alias));
    cte.invalidate(alias);
    EXPECT_TRUE(cte.lookup(a));
}

using ProbeKeyRangeDeathTest = ::testing::Test;

TEST(ProbeKeyRangeDeathTest, CacheInsertPastTheKeyRangePanics)
{
    Cache c("l3", 4 * 16 * blockSize, 16);
    EXPECT_DEATH(c.insert({kCacheKeySpan, false, false}),
                 "l3: address 0x4000000000 is past the 32-bit");
}

TEST(ProbeKeyRangeDeathTest, CteCacheInsertPastTheKeyRangePanics)
{
    CteCache cte(4 * 8 * blockSize, 1, 8);
    EXPECT_DEATH(cte.insert(Ppn{1} << 32), "CTE cache: PPN 0x100000000");
}

TEST(ProbeKeyRangeDeathTest, StridePrefetcherPastTheKeyRangePanics)
{
    StridePrefetcher pf(2, 16);
    std::vector<Addr> out;
    EXPECT_DEATH(pf.observeT(Addr{1} << 44, true, out),
                 "stride prefetcher: address 0x100000000000");
}

// ---------------------------------------------------------------------
// Unsupported geometry is rejected at construction.
// ---------------------------------------------------------------------

using ProbeGeometryDeathTest = ::testing::Test;

TEST(ProbeGeometryDeathTest, CacheRejectsMoreWaysThanMaskBits)
{
    EXPECT_EXIT(Cache("wide", (simd::maxWays + 1) * blockSize,
                      simd::maxWays + 1),
                ::testing::ExitedWithCode(1), "probe engine");
}

TEST(ProbeGeometryDeathTest, CteCacheRejectsMoreWaysThanMaskBits)
{
    EXPECT_EXIT(CteCache((simd::maxWays + 1) * blockSize, 8,
                         simd::maxWays + 1),
                ::testing::ExitedWithCode(1), "probe engine");
}

TEST(ProbeGeometryDeathTest, TlbRejectsMoreWaysThanMaskBits)
{
    EXPECT_EXIT(Tlb(2 * (simd::maxWays + 1), simd::maxWays + 1),
                ::testing::ExitedWithCode(1), "probe engine");
}

TEST(ProbeGeometryDeathTest, StridePrefetcherRejectsTooManyStreams)
{
    EXPECT_EXIT(StridePrefetcher(2, simd::maxWays + 1),
                ::testing::ExitedWithCode(1), "stream count");
    EXPECT_EXIT(StridePrefetcher(2, 0),
                ::testing::ExitedWithCode(1), "stream count");
}

} // namespace
} // namespace tmcc
