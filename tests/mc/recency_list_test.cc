/** Tests for the sampled Recency List (§IV-B). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <string>

#include "common/rng.hh"
#include "mc/recency_list.hh"

namespace tmcc
{
namespace
{

TEST(RecencyList, InsertAndEvictOrder)
{
    RecencyList list(1.0); // deterministic: every touch promotes
    list.insertHot(1);
    list.insertHot(2);
    list.insertHot(3);
    // 1 is the coldest.
    EXPECT_EQ(list.coldest(), 1u);
    EXPECT_EQ(list.popColdest(), 1u);
    EXPECT_EQ(list.popColdest(), 2u);
    EXPECT_EQ(list.size(), 1u);
}

TEST(RecencyList, TouchPromotes)
{
    RecencyList list(1.0);
    list.insertHot(1);
    list.insertHot(2);
    list.insertHot(3);
    list.touch(1); // promote the coldest
    EXPECT_EQ(list.coldest(), 2u);
}

TEST(RecencyList, SampledTouchPromotesSometimes)
{
    RecencyList list(0.5, 42);
    for (Ppn p = 0; p < 100; ++p)
        list.insertHot(p);
    // Touch page 0 (the coldest) many times; with 50% sampling it must
    // move up quickly.
    for (int i = 0; i < 20; ++i)
        list.touch(0);
    EXPECT_NE(list.coldest(), 0u);
}

TEST(RecencyList, ZeroSamplingNeverPromotes)
{
    RecencyList list(0.0);
    list.insertHot(1);
    list.insertHot(2);
    for (int i = 0; i < 100; ++i)
        list.touch(1);
    EXPECT_EQ(list.coldest(), 1u);
}

TEST(RecencyList, RemoveUntracksPage)
{
    RecencyList list(1.0);
    list.insertHot(1);
    list.insertHot(2);
    list.remove(1);
    EXPECT_FALSE(list.contains(1));
    EXPECT_EQ(list.size(), 1u);
    list.remove(99); // absent: no-op
}

TEST(RecencyList, InsertColdGoesToTail)
{
    RecencyList list(1.0);
    list.insertHot(1);
    list.insertHot(2);
    list.insertCold(3);
    EXPECT_EQ(list.coldest(), 3u);
}

TEST(RecencyList, ReinsertMovesExisting)
{
    RecencyList list(1.0);
    list.insertHot(1);
    list.insertHot(2);
    list.insertHot(1); // move, not duplicate
    EXPECT_EQ(list.size(), 2u);
    EXPECT_EQ(list.coldest(), 2u);
}

TEST(RecencyList, MaybeReadmitIsProbabilistic)
{
    RecencyList list(0.01, 7);
    // ~1% readmission probability (§IV-B): over many writebacks the
    // page re-enters roughly 1% of the time.
    unsigned admitted = 0;
    for (int i = 0; i < 10000; ++i) {
        if (list.maybeReadmit(5)) {
            ++admitted;
            list.remove(5); // simulate re-eviction
        }
    }
    EXPECT_GT(admitted, 50u);
    EXPECT_LT(admitted, 200u);
}

TEST(RecencyList, OverheadBytesTracksSize)
{
    RecencyList list(1.0);
    EXPECT_EQ(list.overheadBytes(), 0u);
    for (Ppn p = 0; p < 10; ++p)
        list.insertHot(p);
    // PPN + two pointers per element.
    EXPECT_EQ(list.overheadBytes(), 10u * 24u);
}

/**
 * Reference model: a plain hottest-first std::list, searched linearly.
 * It draws from its own Rng, seeded like the list under test, at
 * exactly the points the list draws (every touch, and a readmission of
 * an untracked page), so the two see the same random stream.
 */
class RecencyModel
{
  public:
    RecencyModel(double sample_p, std::uint64_t seed)
        : sampleP_(sample_p), rng_(seed)
    {}

    void
    insertHot(Ppn ppn)
    {
        list_.remove(ppn);
        list_.push_front(ppn);
    }

    void
    insertCold(Ppn ppn)
    {
        list_.remove(ppn);
        list_.push_back(ppn);
    }

    void
    touch(Ppn ppn)
    {
        ++touches;
        if (!rng_.chance(sampleP_))
            return;
        auto it = std::find(list_.begin(), list_.end(), ppn);
        if (it == list_.end())
            return;
        ++promotions;
        list_.splice(list_.begin(), list_, it);
    }

    Ppn coldest() const { return list_.empty() ? invalidAddr : list_.back(); }

    Ppn
    popColdest()
    {
        ++evictions;
        const Ppn ppn = list_.back();
        list_.pop_back();
        return ppn;
    }

    void remove(Ppn ppn) { list_.remove(ppn); }

    bool
    contains(Ppn ppn) const
    {
        return std::find(list_.begin(), list_.end(), ppn) != list_.end();
    }

    bool
    maybeReadmit(Ppn ppn)
    {
        if (contains(ppn) || !rng_.chance(sampleP_))
            return false;
        ++readmissions;
        insertHot(ppn);
        return true;
    }

    std::size_t size() const { return list_.size(); }

    std::uint64_t touches = 0, promotions = 0, evictions = 0,
                  readmissions = 0;

  private:
    double sampleP_;
    Rng rng_;
    std::list<Ppn> list_; //!< front = hottest
};

TEST(RecencyListProperty, MatchesReferenceModel)
{
    constexpr double sampleP = 0.5;
    constexpr std::uint64_t seed = 0x7ecc;
    constexpr int ops = 100'000;
    RecencyList list(sampleP, seed);
    RecencyModel model(sampleP, seed);
    Rng rng(0x1157);
    // Pairs of adjacent PPNs spread ~16K frames apart (page 0 included):
    // keys are neither dense nor all distant.
    constexpr std::uint64_t universe = 96;
    auto pick = [&] {
        const std::uint64_t k = rng.below(universe);
        return static_cast<Ppn>((k / 2) * 0x4001 + (k & 1));
    };
    std::uint64_t pops = 0;
    for (int op = 0; op < ops; ++op) {
        const std::uint64_t r = rng.below(100);
        const Ppn ppn = pick();
        if (r < 20) {
            list.insertHot(ppn);
            model.insertHot(ppn);
        } else if (r < 30) {
            list.insertCold(ppn);
            model.insertCold(ppn);
        } else if (r < 65) {
            list.touch(ppn);
            model.touch(ppn);
        } else if (r < 75) {
            if (model.size() > 0) {
                ASSERT_EQ(list.popColdest(), model.popColdest())
                    << "op " << op;
                ++pops;
            }
        } else if (r < 85) {
            list.remove(ppn);
            model.remove(ppn);
        } else {
            ASSERT_EQ(list.maybeReadmit(ppn), model.maybeReadmit(ppn))
                << "op " << op << " readmit " << ppn;
        }
        ASSERT_EQ(list.size(), model.size()) << "op " << op;
        ASSERT_EQ(list.coldest(), model.coldest()) << "op " << op;
        ASSERT_EQ(list.contains(ppn), model.contains(ppn))
            << "op " << op << " ppn " << ppn;
        ASSERT_EQ(list.overheadBytes(), model.size() * 3 * 8)
            << "op " << op;
    }
    // Every path was exercised, and the counters agree.
    EXPECT_GT(pops, 0u);
    EXPECT_GT(model.promotions, 0u);
    EXPECT_GT(model.readmissions, 0u);
    StatDump dump;
    list.dumpStats(dump, "r");
    EXPECT_EQ(dump.get("r.size"), static_cast<double>(model.size()));
    EXPECT_EQ(dump.get("r.touches"), static_cast<double>(model.touches));
    EXPECT_EQ(dump.get("r.promotions"),
              static_cast<double>(model.promotions));
    EXPECT_EQ(dump.get("r.evictions"), static_cast<double>(model.evictions));
    EXPECT_EQ(dump.get("r.readmissions"),
              static_cast<double>(model.readmissions));
    EXPECT_EQ(dump.get("r.overhead_bytes"),
              static_cast<double>(model.size() * 3 * 8));
    // The whole order agrees, coldest first.
    while (model.size() > 0)
        ASSERT_EQ(list.popColdest(), model.popColdest());
    EXPECT_EQ(list.size(), 0u);
    EXPECT_EQ(list.coldest(), invalidAddr);
}

} // namespace
} // namespace tmcc
