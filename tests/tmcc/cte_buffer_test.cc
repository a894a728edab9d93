/** Tests for the 64-entry CTE Buffer (§V-A3, Fig. 10). */

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <string>

#include "common/rng.hh"
#include "tmcc/cte_buffer.hh"

namespace tmcc
{
namespace
{

TEST(CteBuffer, InsertLookup)
{
    CteBuffer buf(4);
    buf.insert(100, true, 0xaa, 0x5000);
    const auto *e = buf.lookup(100);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->hasCte);
    EXPECT_EQ(e->cte, 0xaau);
    EXPECT_EQ(e->ptbAddr, 0x5000u);
    EXPECT_EQ(buf.lookup(101), nullptr);
}

TEST(CteBuffer, SlotWithoutCte)
{
    // Bigger machines can't embed a CTE for every PTE (§V-A5); the
    // buffer still records the PPN -> PTB association.
    CteBuffer buf(4);
    buf.insert(200, false, 0, 0x6000);
    const auto *e = buf.lookup(200);
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(e->hasCte);
}

TEST(CteBuffer, LruReplacement)
{
    CteBuffer buf(2);
    buf.insert(1, true, 1, 0x100);
    buf.insert(2, true, 2, 0x200);
    buf.lookup(1); // refresh
    buf.insert(3, true, 3, 0x300); // evicts 2
    EXPECT_NE(buf.lookup(1), nullptr);
    EXPECT_EQ(buf.lookup(2), nullptr);
    EXPECT_NE(buf.lookup(3), nullptr);
}

TEST(CteBuffer, ReinsertUpdatesInPlace)
{
    CteBuffer buf(2);
    buf.insert(1, true, 10, 0x100);
    buf.insert(1, true, 20, 0x180);
    const auto *e = buf.lookup(1);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->cte, 20u);
    EXPECT_EQ(e->ptbAddr, 0x180u);
}

TEST(CteBuffer, MatchingResponseNeedsNoUpdate)
{
    CteBuffer buf(4);
    buf.insert(1, true, 42, 0x100);
    EXPECT_EQ(buf.updateOnResponse(1, 42), invalidAddr);
}

TEST(CteBuffer, StaleResponseReturnsPtbForLazyUpdate)
{
    CteBuffer buf(4);
    buf.insert(1, true, 42, 0x100);
    // The page migrated: the correct CTE differs.
    EXPECT_EQ(buf.updateOnResponse(1, 43), 0x100u);
    // The entry now carries the corrected CTE.
    const auto *e = buf.lookup(1);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->cte, 43u);
    // A second identical response no longer reports staleness.
    EXPECT_EQ(buf.updateOnResponse(1, 43), invalidAddr);
}

TEST(CteBuffer, MissingCteTreatedAsStale)
{
    CteBuffer buf(4);
    buf.insert(1, false, 0, 0x100);
    EXPECT_EQ(buf.updateOnResponse(1, 7), 0x100u);
    EXPECT_TRUE(buf.lookup(1)->hasCte);
}

TEST(CteBuffer, ResponseForUntrackedPpnIgnored)
{
    CteBuffer buf(4);
    EXPECT_EQ(buf.updateOnResponse(9, 7), invalidAddr);
}

TEST(CteBuffer, FlushEmpties)
{
    CteBuffer buf(4);
    buf.insert(1, true, 1, 0x100);
    buf.flush();
    EXPECT_EQ(buf.lookup(1), nullptr);
}

TEST(CteBufferDeathTest, ZeroEntriesIsFatal)
{
    EXPECT_DEATH(CteBuffer(0), "at least one entry");
}

TEST(CteBufferDeathTest, MoreEntriesThanSlotNumbersIsFatal)
{
    CteBuffer largest(CteBuffer::maxEntries);
    largest.insert(1, true, 1, 0x100);
    EXPECT_NE(largest.lookup(1), nullptr);
    EXPECT_DEATH(CteBuffer(CteBuffer::maxEntries + 1), "at most 65534");
}

TEST(CteBuffer, FlushForgetsOnlyWhatItHeld)
{
    // The PPN table starts sized for 16 frames and grows for PPN 1000.
    CteBuffer buf(2, 16);
    buf.insert(3, true, 3, 0x300);
    buf.insert(1000, true, 7, 0x700);
    buf.flush();
    EXPECT_EQ(buf.lookup(3), nullptr);
    EXPECT_EQ(buf.lookup(1000), nullptr);
    buf.insert(1000, false, 0, 0x800);
    buf.insert(5, true, 5, 0x500);
    buf.insert(6, true, 6, 0x600); // evicts 1000
    EXPECT_EQ(buf.lookup(1000), nullptr);
    EXPECT_NE(buf.lookup(5), nullptr);
    EXPECT_NE(buf.lookup(6), nullptr);
}

/**
 * Reference model: a plain MRU-first list, searched linearly.  Exact
 * LRU by construction; the buffer under test must agree with it on
 * every observable result.
 */
class LruModel
{
  public:
    explicit LruModel(unsigned capacity) : capacity_(capacity) {}

    void
    insert(Ppn ppn, bool has_cte, std::uint64_t cte, Addr ptb_addr)
    {
        auto it = find(ppn);
        if (it != list_.end())
            list_.erase(it);
        else if (list_.size() == capacity_)
            list_.pop_back();
        list_.push_front({ppn, has_cte, cte, ptb_addr});
    }

    const CteBuffer::Entry *
    lookup(Ppn ppn)
    {
        auto it = find(ppn);
        if (it == list_.end())
            return nullptr;
        list_.splice(list_.begin(), list_, it);
        return &list_.front();
    }

    Addr
    updateOnResponse(Ppn ppn, std::uint64_t correct_cte)
    {
        auto it = find(ppn);
        if (it == list_.end())
            return invalidAddr;
        const bool stale = !it->hasCte || it->cte != correct_cte;
        it->hasCte = true;
        it->cte = correct_cte;
        return stale ? it->ptbAddr : invalidAddr;
    }

    void flush() { list_.clear(); }

  private:
    std::list<CteBuffer::Entry>::iterator
    find(Ppn ppn)
    {
        for (auto it = list_.begin(); it != list_.end(); ++it)
            if (it->ppn == ppn)
                return it;
        return list_.end();
    }

    unsigned capacity_;
    std::list<CteBuffer::Entry> list_;
};

TEST(CteBufferProperty, MatchesReferenceLruModel)
{
    constexpr unsigned capacities[] = {1, 2, 3, 4, 16, 63, 64, 65, 256};
    constexpr int opsPerCapacity = 100'000;
    for (unsigned cap : capacities) {
        SCOPED_TRACE("capacity " + std::to_string(cap));
        CteBuffer buf(cap);
        LruModel model(cap);
        Rng rng(0xc7eb0f + cap);
        // A universe ~1.5x the capacity: hits, misses and evictions
        // are all frequent.
        const std::uint64_t universe = cap + cap / 2 + 2;
        // Pairs of adjacent PPNs (as one PTB maps) spread widely
        // apart, so keys are neither dense nor all distant.
        auto pick = [&] {
            const std::uint64_t k = rng.below(universe);
            return static_cast<Ppn>((k / 2) * 0x10001 + (k & 1));
        };
        std::uint64_t hits = 0, misses = 0, stale = 0;
        for (int op = 0; op < opsPerCapacity; ++op) {
            const std::uint64_t r = rng.below(10'000);
            const Ppn ppn = pick();
            if (r < 4'000) {
                const bool has_cte = rng.below(4) != 0;
                const std::uint64_t cte = rng.below(8);
                const Addr ptb = rng.below(1 << 20) << 6;
                buf.insert(ppn, has_cte, cte, ptb);
                model.insert(ppn, has_cte, cte, ptb);
            } else if (r < 8'000) {
                const CteBuffer::Entry *got = buf.lookup(ppn);
                const CteBuffer::Entry *want = model.lookup(ppn);
                ASSERT_EQ(got != nullptr, want != nullptr)
                    << "op " << op << " lookup " << ppn;
                if (want == nullptr) {
                    ++misses;
                    continue;
                }
                ++hits;
                ASSERT_EQ(got->ppn, want->ppn) << "op " << op;
                ASSERT_EQ(got->hasCte, want->hasCte) << "op " << op;
                ASSERT_EQ(got->cte, want->cte) << "op " << op;
                ASSERT_EQ(got->ptbAddr, want->ptbAddr) << "op " << op;
            } else if (r < 9'999) {
                const std::uint64_t cte = rng.below(8);
                const Addr want = model.updateOnResponse(ppn, cte);
                ASSERT_EQ(buf.updateOnResponse(ppn, cte), want)
                    << "op " << op << " response " << ppn;
                stale += want != invalidAddr;
            } else {
                buf.flush();
                model.flush();
            }
        }
        // Every path was exercised, and the counters agree.
        EXPECT_GT(hits, 0u);
        EXPECT_GT(misses, 0u);
        EXPECT_GT(stale, 0u);
        StatDump dump;
        buf.dumpStats(dump, "b");
        EXPECT_EQ(dump.get("b.hits"), static_cast<double>(hits));
        EXPECT_EQ(dump.get("b.misses"), static_cast<double>(misses));
        EXPECT_EQ(dump.get("b.stale_updates"), static_cast<double>(stale));
    }
}

} // namespace
} // namespace tmcc
