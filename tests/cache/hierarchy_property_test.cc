/**
 * Property tests: hierarchy invariants under random traffic, issued
 * the way the simulator issues it — demand access, fill on a miss,
 * then the same-page prefetch proposals — through the fixed-capacity
 * SmallOutcome sinks.
 */

#include <unordered_map>

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "common/rng.hh"

namespace tmcc
{
namespace
{

HierarchyConfig
tinyConfig()
{
    HierarchyConfig cfg;
    cfg.l1Bytes = 512;
    cfg.l1Assoc = 2;
    cfg.l2Bytes = 2048;
    cfg.l2Assoc = 4;
    cfg.l3Bytes = 8192;
    cfg.l3Assoc = 4;
    return cfg;
}

/**
 * One access as the simulator performs it; every line written back to
 * memory goes to `note_wb`.
 */
template <class Fn>
void
issue(Hierarchy &h, unsigned core, Addr addr, bool write, bool walker,
      bool compressed, Fn &&note_wb)
{
    const auto out = h.accessT<SmallOutcome>(core, addr, write, walker);
    for (const CacheLine &wb : out.memWritebacks)
        note_wb(wb);
    if (out.level == HitLevel::Memory) {
        const auto fill = h.fillT<SmallOutcome>(core, addr, write,
                                                compressed, walker);
        for (const CacheLine &wb : fill.memWritebacks)
            note_wb(wb);
    }
    for (Addr pf : out.prefetches) {
        if (pageNumber(pf) != pageNumber(addr))
            continue;
        SmallVec<CacheLine, 4> wbs;
        if (h.prefetchLookupT(core, pf, wbs)) {
            const auto fill =
                h.fillT<SmallOutcome>(core, pf, false, false, false);
            for (const CacheLine &wb : fill.memWritebacks)
                note_wb(wb);
        }
        for (const CacheLine &wb : wbs)
            note_wb(wb);
    }
}

class HierarchyPropertyTest : public ::testing::TestWithParam<int>
{};

TEST_P(HierarchyPropertyTest, InclusionAndExclusionInvariants)
{
    Hierarchy h(tinyConfig(), 2);
    Rng rng(GetParam());

    for (int i = 0; i < 3000; ++i) {
        const unsigned core = static_cast<unsigned>(rng.below(2));
        const Addr addr = rng.below(256) * blockSize;
        const bool write = rng.chance(0.3);
        const bool walker = rng.chance(0.1);
        const bool compressed = rng.chance(0.2);
        issue(h, core, addr, write, walker, compressed,
              [](const CacheLine &) {});

        // Invariant 1: L2 is inclusive of L1.
        for (unsigned c = 0; c < 2; ++c) {
            for (Addr a = 0; a < 256 * blockSize; a += blockSize) {
                if (h.l1(c).probe(a)) {
                    ASSERT_TRUE(h.l2(c).probe(a))
                        << "L1 line not in inclusive L2";
                }
            }
        }
        // Invariant 2: L3 is exclusive of both L2s.
        for (Addr a = 0; a < 256 * blockSize; a += blockSize) {
            if (h.l3().probe(a)) {
                ASSERT_FALSE(h.l2(0).probe(a) || h.l2(1).probe(a))
                    << "line in both L2 and exclusive L3";
            }
        }
    }
}

TEST_P(HierarchyPropertyTest, DirtyDataIsNeverSilentlyDropped)
{
    // Every address written must either still be dirty somewhere in
    // the hierarchy or have appeared in a memory writeback.
    Hierarchy h(tinyConfig(), 1);
    Rng rng(GetParam() + 100);

    std::unordered_map<Addr, bool> written; // addr -> wb seen
    auto note_wb = [&](const CacheLine &wb) {
        if (wb.dirty && written.count(wb.addr))
            written[wb.addr] = true;
    };

    for (int i = 0; i < 2000; ++i) {
        const Addr addr = rng.below(128) * blockSize;
        const bool write = rng.chance(0.4);
        issue(h, 0, addr, write, false, false, note_wb);
        if (write)
            written.emplace(blockAlign(addr), false);
    }

    for (const auto &[addr, wb_seen] : written) {
        if (wb_seen)
            continue;
        // Must still be resident (dirty state merged somewhere).
        const bool resident = h.l1(0).probe(addr) ||
                              h.l2(0).probe(addr) || h.l3().probe(addr);
        ASSERT_TRUE(resident)
            << "dirty line vanished without a writeback: " << addr;
    }
}

TEST(HierarchyFill, BackInvalidationInTheFillSetReprobesL1)
{
    // A fill reuses the L1 set its lookup scanned unless that set's
    // tags changed in between.  Here the L2 victim's L1 copy sits in
    // the very L1 set being filled, and its back-invalidation frees a
    // way there: the fill must take that way, not evict the LRU line
    // a stale "set is full" probe would pick.
    HierarchyConfig cfg = tinyConfig(); // L1: 4 sets x 2, L2: 8 sets x 4
    cfg.prefetchers = false;
    Hierarchy h(cfg, 1);
    const auto blk = [](Addr n) { return n * blockSize; };
    auto no_wb = [](const CacheLine &) {};
    issue(h, 0, blk(4), false, false, false, no_wb); // L1 set 0, LRU
    issue(h, 0, blk(0), false, false, false, no_wb); // L1 set 0, L2 set 0
    for (Addr n : {8, 16, 24}) // walker fills: L2 set 0 only, 0 is LRU
        issue(h, 0, blk(n), false, true, false, no_wb);
    issue(h, 0, blk(32), false, false, false, no_wb); // evicts 0 from L2
    EXPECT_FALSE(h.l1(0).probe(blk(0)));
    EXPECT_TRUE(h.l1(0).probe(blk(4)));
    EXPECT_TRUE(h.l1(0).probe(blk(32)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyPropertyTest,
                         ::testing::Range(0, 12));

} // namespace
} // namespace tmcc
