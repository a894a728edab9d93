/** Tests for the ML1/ML2 free lists (Fig. 3) and Compresso chunks. */

#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/stats.hh"
#include "mc/free_list.hh"

namespace tmcc
{
namespace
{

TEST(Ml1FreeList, SeedPopPush)
{
    Ml1FreeList list;
    list.seed(100, 10);
    EXPECT_EQ(list.size(), 10u);
    EXPECT_EQ(list.pop(), 100u); // ascending pops
    EXPECT_EQ(list.pop(), 101u);
    list.push(100);
    EXPECT_EQ(list.pop(), 100u); // LIFO
}

TEST(SubChunkClasses, FragmentFree)
{
    // (4KB * M) mod N == 0 for every class (§IV-B).
    for (const auto &c : subChunkClasses) {
        EXPECT_EQ((pageSize * c.chunksM) % c.subChunksN, 0u);
        EXPECT_EQ(pageSize * c.chunksM / c.subChunksN, c.bytes);
    }
}

TEST(Ml2FreeLists, ClassForSelectsSmallestFit)
{
    EXPECT_EQ(Ml2FreeLists::classFor(1), 0u);       // 256B
    EXPECT_EQ(Ml2FreeLists::classFor(256), 0u);
    EXPECT_EQ(Ml2FreeLists::classFor(257), 1u);     // 512B
    EXPECT_EQ(Ml2FreeLists::classFor(1500), 4u);    // 1536B
    EXPECT_EQ(Ml2FreeLists::classFor(3072), 6u);
    EXPECT_EQ(Ml2FreeLists::classFor(3073),
              subChunkClasses.size()); // no class fits
}

TEST(Ml2FreeLists, AllocGrowsFromMl1)
{
    Ml1FreeList ml1;
    ml1.seed(0, 16);
    Ml2FreeLists ml2(ml1);

    SubChunk sc;
    ASSERT_TRUE(ml2.alloc(4, sc)); // 1536B class: M=3, N=8
    EXPECT_EQ(ml1.size(), 13u);    // 3 chunks consumed
    EXPECT_EQ(ml2.heldChunks(), 3u);
    EXPECT_EQ(ml2.liveBytes(), 1536u);
}

TEST(Ml2FreeLists, SubChunksDontOverlap)
{
    Ml1FreeList ml1;
    ml1.seed(0, 16);
    Ml2FreeLists ml2(ml1);

    std::vector<SubChunk> subs;
    for (int i = 0; i < 8; ++i) {
        SubChunk sc;
        ASSERT_TRUE(ml2.alloc(4, sc)); // all 8 slots of one super-chunk
        subs.push_back(sc);
    }
    // Addresses must be distinct and 1536B apart within the frames.
    for (std::size_t i = 0; i < subs.size(); ++i)
        for (std::size_t j = i + 1; j < subs.size(); ++j)
            EXPECT_GE(
                std::max(subs[i].dramAddr, subs[j].dramAddr) -
                    std::min(subs[i].dramAddr, subs[j].dramAddr),
                1536u);
    // Still only one super-chunk worth of frames consumed.
    EXPECT_EQ(ml2.heldChunks(), 3u);
}

TEST(Ml2FreeLists, EmptySuperChunkReturnsToMl1)
{
    Ml1FreeList ml1;
    ml1.seed(0, 16);
    Ml2FreeLists ml2(ml1);

    SubChunk a, b;
    ASSERT_TRUE(ml2.alloc(5, a)); // 2048B: M=1, N=2
    ASSERT_TRUE(ml2.alloc(5, b));
    EXPECT_EQ(ml1.size(), 15u);
    ml2.free(a);
    EXPECT_EQ(ml1.size(), 15u); // super-chunk still half used
    ml2.free(b);
    EXPECT_EQ(ml1.size(), 16u); // returned to ML1 (§IV-B)
    EXPECT_EQ(ml2.heldChunks(), 0u);
}

TEST(Ml2FreeLists, AllocFailsWhenMl1Dry)
{
    Ml1FreeList ml1;
    ml1.seed(0, 2);
    Ml2FreeLists ml2(ml1);
    SubChunk sc;
    // 768B class needs M=3 chunks; only 2 available.
    EXPECT_FALSE(ml2.alloc(2, sc));
    // 512B class needs 1 chunk: fine.
    EXPECT_TRUE(ml2.alloc(1, sc));
}

TEST(Ml2FreeLists, FreedSlotTracksAtTop)
{
    Ml1FreeList ml1;
    ml1.seed(0, 16);
    Ml2FreeLists ml2(ml1);

    SubChunk a, b;
    ASSERT_TRUE(ml2.alloc(1, a)); // 512B: N=8
    ASSERT_TRUE(ml2.alloc(1, b));
    ml2.free(a);
    // Next alloc reuses the freed slot (top of list, §IV-B).
    SubChunk c;
    ASSERT_TRUE(ml2.alloc(1, c));
    EXPECT_EQ(c.dramAddr, a.dramAddr);
}

TEST(Ml2FreeLists, PopOrderUnaffectedByReturnedSuperChunks)
{
    // Returning a super-chunk leaves tombstone entries in the class
    // list; allocation must skip them and still honour LIFO order.
    Ml1FreeList ml1;
    ml1.seed(0, 16);
    Ml2FreeLists ml2(ml1);

    std::vector<SubChunk> a(8), b(8);
    for (auto &sc : a)
        ASSERT_TRUE(ml2.alloc(1, sc)); // 512B: M=1, N=8
    for (auto &sc : b)
        ASSERT_TRUE(ml2.alloc(1, sc));
    // Free all of super-chunk A: it returns to ML1 leaving 7 dead
    // entries below the top of the class list.
    for (auto &sc : a)
        ml2.free(sc);
    EXPECT_EQ(ml2.heldChunks(), 1u);
    // Free one B slot; the next alloc must reuse exactly that slot.
    ml2.free(b[3]);
    SubChunk c;
    ASSERT_TRUE(ml2.alloc(1, c));
    EXPECT_EQ(c.dramAddr, b[3].dramAddr);
    EXPECT_EQ(c.superChunk, b[3].superChunk);
    // With no live free slot left, the next alloc discards the
    // tombstones and carves a fresh super-chunk from ML1.
    EXPECT_EQ(ml2.freeSlotCount(1), 0u);
    SubChunk d;
    ASSERT_TRUE(ml2.alloc(1, d));
    EXPECT_EQ(ml2.heldChunks(), 2u);
    EXPECT_NE(d.superChunk, c.superChunk);
}

TEST(Ml2FreeLists, ChurnStormKeepsInvariantsAndStaysLinear)
{
    // Adversarial tenant-exit shape: fully allocate many super-chunks,
    // free slots 1..7 of each (a huge free-slot list), then free the
    // last slot of each so every free returns a super-chunk.  The old
    // implementation scanned the whole class list per return (O(n^2),
    // ~70s at this scale); the lazy-tombstone scheme runs in ~150ms,
    // so the bound holds even under sanitizers.
    const auto start = std::chrono::steady_clock::now();

    constexpr std::uint64_t superChunksN = 150000;
    Ml1FreeList ml1;
    ml1.seed(0, superChunksN);
    Ml2FreeLists ml2(ml1);

    std::vector<SubChunk> subs(superChunksN * 8);
    for (auto &sc : subs)
        ASSERT_TRUE(ml2.alloc(1, sc)); // 512B: M=1, N=8
    EXPECT_EQ(ml2.heldChunks(), superChunksN);
    EXPECT_EQ(ml2.liveBytes(), superChunksN * 8 * 512);
    EXPECT_EQ(ml2.superChunkCount(), superChunksN);

    for (std::uint64_t s = 0; s < superChunksN; ++s)
        for (unsigned slot = 1; slot < 8; ++slot)
            ml2.free(subs[s * 8 + slot]);
    EXPECT_EQ(ml2.freeSlotCount(1), superChunksN * 7);
    for (std::uint64_t s = 0; s < superChunksN; ++s)
        ml2.free(subs[s * 8]);

    // Everything returned: no leaked super-chunks or chunks.
    EXPECT_EQ(ml2.liveBytes(), 0u);
    EXPECT_EQ(ml2.heldChunks(), 0u);
    EXPECT_EQ(ml2.superChunkCount(), 0u);
    EXPECT_EQ(ml2.freeSlotCount(1), 0u);
    EXPECT_EQ(ml1.size(), superChunksN);

    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    EXPECT_LT(secs, 20.0) << "super-chunk return went quadratic";
}

TEST(Ml2FreeLists, RandomChurnConservesChunks)
{
    constexpr std::uint64_t frames = 4096;
    Ml1FreeList ml1;
    ml1.seed(0, frames);
    Ml2FreeLists ml2(ml1);

    Rng rng(71);
    std::vector<SubChunk> live;
    std::uint64_t live_bytes = 0;
    for (int step = 0; step < 200000; ++step) {
        if (live.empty() || rng.chance(0.55)) {
            const auto cls = static_cast<unsigned>(
                rng.below(subChunkClasses.size()));
            SubChunk sc;
            if (!ml2.alloc(cls, sc))
                continue; // ML1 dry: fine under pressure
            live.push_back(sc);
            live_bytes += subChunkClasses[cls].bytes;
        } else {
            const std::size_t i = rng.below(live.size());
            std::swap(live[i], live.back());
            live_bytes -= subChunkClasses[live.back().sizeClass].bytes;
            ml2.free(live.back());
            live.pop_back();
        }
        // Chunks are conserved between ML1 and ML2 at every step.
        ASSERT_EQ(ml1.size() + ml2.heldChunks(), frames);
        ASSERT_EQ(ml2.liveBytes(), live_bytes);
    }
    for (const auto &sc : live)
        ml2.free(sc);
    EXPECT_EQ(ml2.liveBytes(), 0u);
    EXPECT_EQ(ml2.heldChunks(), 0u);
    EXPECT_EQ(ml2.superChunkCount(), 0u);
    for (unsigned c = 0; c < subChunkClasses.size(); ++c)
        EXPECT_EQ(ml2.freeSlotCount(c), 0u);
    EXPECT_EQ(ml1.size(), frames);
}

TEST(Ml2FreeLists, WideClassUses64BitSlotMask)
{
    // A 64-slot class exercises the top mask bit (1ULL << 63); the old
    // 32-bit mask made any class with subChunksN > 32 undefined.
    Ml1FreeList ml1;
    ml1.seed(0, 16);
    // (4KB * 16) / 64 == 1024: fragment-free.
    Ml2FreeLists ml2(ml1, {{1024, 16, 64}});

    std::vector<SubChunk> subs(64);
    for (auto &sc : subs)
        ASSERT_TRUE(ml2.alloc(0, sc));
    EXPECT_EQ(ml2.heldChunks(), 16u);
    EXPECT_EQ(ml2.superChunkCount(), 1u);
    for (std::size_t i = 0; i < subs.size(); ++i)
        for (std::size_t j = i + 1; j < subs.size(); ++j)
            EXPECT_NE(subs[i].dramAddr, subs[j].dramAddr);
    for (auto &sc : subs)
        ml2.free(sc);
    EXPECT_EQ(ml2.heldChunks(), 0u);
    EXPECT_EQ(ml1.size(), 16u);
}

TEST(Ml2FreeListsDeathTest, RejectsClassesExceedingSlotMask)
{
    Ml1FreeList ml1;
    const std::vector<SubChunkClass> tooWide = {{512, 8, 65}};
    const std::vector<SubChunkClass> zeroSlots = {{512, 1, 0}};
    const std::vector<SubChunkClass> empty;
    EXPECT_DEATH(Ml2FreeLists(ml1, tooWide), "slot mask");
    EXPECT_DEATH(Ml2FreeLists(ml1, zeroSlots), "slot mask");
    EXPECT_DEATH(Ml2FreeLists(ml1, empty), "sub-chunk class");
}

TEST(ChunkFreeList, SeedPopPush)
{
    ChunkFreeList list(512);
    list.seed(0x10000, 4);
    EXPECT_EQ(list.size(), 4u);
    const Addr a = list.pop();
    EXPECT_EQ(a, 0x10000u);
    list.push(a);
    EXPECT_EQ(list.pop(), a);
}

TEST(ChunkFreeList, MatchesMaterializedStackUnderRandomChurn)
{
    // The reference materializes the stack: every seeded chunk pushed
    // in reverse, so pops ascend.
    constexpr Addr base = 0x40000;
    constexpr std::uint64_t seeded = 1000;
    ChunkFreeList list(512);
    list.seed(base, seeded);
    std::vector<Addr> ref;
    for (std::uint64_t i = seeded; i-- > 0;)
        ref.push_back(base + i * 512);

    Rng rng(17);
    std::vector<Addr> held;
    std::uint64_t pops = 0, pushes = 0, emptied = 0;
    for (int step = 0; step < 20000; ++step) {
        // Lean towards pops so the fresh range drains and the list
        // runs empty now and then.
        if (!ref.empty() && (held.empty() || rng.chance(0.55))) {
            const Addr a = list.pop();
            ASSERT_EQ(a, ref.back()) << "step " << step;
            ref.pop_back();
            held.push_back(a);
            ++pops;
        } else {
            // Return a random held chunk, not only the newest.
            const std::size_t i = rng.below(held.size());
            std::swap(held[i], held.back());
            list.push(held.back());
            ref.push_back(held.back());
            held.pop_back();
            ++pushes;
        }
        ASSERT_EQ(list.size(), ref.size()) << "step " << step;
        ASSERT_EQ(list.empty(), ref.empty()) << "step " << step;
        emptied += ref.empty();
        StatDump dump;
        list.dumpStats(dump, "c");
        ASSERT_EQ(dump.get("c.size"), static_cast<double>(ref.size()));
        ASSERT_EQ(dump.get("c.pops"), static_cast<double>(pops));
        ASSERT_EQ(dump.get("c.pushes"), static_cast<double>(pushes));
    }
    EXPECT_GT(pushes, 5000u);
    EXPECT_GT(emptied, 0u);
}

TEST(ChunkFreeList, SeedingHugeRangeIsLazy)
{
    // 2^31 chunks: materializing them would take 16 GB.
    constexpr std::uint64_t chunks = (1ULL << 40) / 512;
    ChunkFreeList list(512);
    list.seed(0, chunks);
    EXPECT_EQ(list.size(), chunks);
    for (Addr i = 0; i < 4; ++i)
        EXPECT_EQ(list.pop(), i * 512);
    EXPECT_EQ(list.size(), chunks - 4);
}

TEST(ChunkFreeListDeathTest, PopOnEmptyUnderflows)
{
    ChunkFreeList list(512);
    EXPECT_DEATH(list.pop(), "underflow");
    list.seed(0, 1);
    list.pop();
    EXPECT_DEATH(list.pop(), "underflow");
}

TEST(ChunkFreeListDeathTest, SeedingTwiceIsFatal)
{
    ChunkFreeList list(512);
    list.seed(0, 4);
    EXPECT_DEATH(list.seed(4096, 4), "seeded while non-empty");
}

} // namespace
} // namespace tmcc
