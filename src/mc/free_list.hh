/**
 * @file
 * The hardware Free Lists of §IV-B / Fig. 3.
 *
 * - Ml1FreeList tracks free 4KB DRAM chunks (Fig. 3b).  Like the
 *   original design, pointers live inside the free chunks themselves so
 *   the structure costs no extra DRAM; the model tracks frame ids.
 *
 * - Ml2FreeLists keeps one list per sub-chunk size class (Fig. 3c).
 *   Equal-size sub-chunks are carved fragmentation-free out of
 *   super-chunks of M interlinked 4KB chunks split N ways, with (M, N)
 *   chosen so (4KB*M) mod N is minimal.  Allocation pops from the top;
 *   super-chunks whose sub-chunks all free return their chunks to ML1.
 *
 * - ChunkFreeList is the Compresso-style fine-grain (512B) chunk list.
 */

#ifndef TMCC_MC_FREE_LIST_HH
#define TMCC_MC_FREE_LIST_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace tmcc
{

/** ML1 free list: free 4KB DRAM frames (LIFO). */
class Ml1FreeList : public Stated
{
  public:
    /** Seed with frames [first, first+count). */
    void seed(DramFrame first, std::uint64_t count);

    bool empty() const { return frames_.empty(); }
    std::size_t size() const { return frames_.size(); }

    DramFrame pop();
    void push(DramFrame frame);

    void dumpStats(StatDump &dump,
                   const std::string &prefix) const override;

  private:
    std::vector<DramFrame> frames_;
    Counter pops_, pushes_;
};

/** Sub-chunk size classes used by ML2. */
struct SubChunkClass
{
    std::size_t bytes;   //!< sub-chunk size
    unsigned chunksM;    //!< chunks per super-chunk
    unsigned subChunksN; //!< sub-chunks per super-chunk
};

/** The classes: (4KB*M) mod N == 0 for every entry (fragment-free). */
constexpr std::array<SubChunkClass, 7> subChunkClasses = {{
    {256, 1, 16},
    {512, 1, 8},
    {768, 3, 16},
    {1024, 1, 4},
    {1536, 3, 8},
    {2048, 1, 2},
    {3072, 3, 4},
}};

/** Location of one allocated ML2 sub-chunk. */
struct SubChunk
{
    std::uint64_t superChunk = 0; //!< id
    unsigned slot = 0;
    unsigned sizeClass = 0;
    Addr dramAddr = 0; //!< byte address of the sub-chunk in DRAM
};

/** All ML2 free lists plus the super-chunk registry. */
class Ml2FreeLists : public Stated
{
  public:
    explicit Ml2FreeLists(Ml1FreeList &ml1);

    /** As above, with a custom class table (tests, future geometries).
     * Fatal if any class has subChunksN outside [1, 64]: slot
     * occupancy is tracked in a 64-bit mask per super-chunk. */
    Ml2FreeLists(Ml1FreeList &ml1, std::vector<SubChunkClass> classes);

    /** Smallest class that fits `bytes`; classes.size() if none. */
    static unsigned classFor(std::size_t bytes);

    /**
     * Allocate a sub-chunk of class `cls`, growing from ML1 if the
     * class list is empty.  Returns false if ML1 is also empty.
     */
    bool alloc(unsigned cls, SubChunk &out);

    /** Free a sub-chunk; empty super-chunks return chunks to ML1. */
    void free(const SubChunk &sc);

    /** Total bytes currently allocated to live sub-chunks. */
    std::uint64_t liveBytes() const { return liveBytes_; }

    /** Chunks (4KB) currently held by ML2 (live + free sub-chunks). */
    std::uint64_t heldChunks() const { return heldChunks_; }

    /** Live super-chunks currently registered. */
    std::size_t superChunkCount() const { return superChunks_.size(); }

    /** Free sub-chunks of class `cls` available for allocation.
     * (Counts live entries only; returned super-chunks leave dead
     * entries behind that allocation skips lazily.) */
    std::uint64_t freeSlotCount(unsigned cls) const;

    void dumpStats(StatDump &dump,
                   const std::string &prefix) const override;

  private:
    struct SuperChunk
    {
        unsigned sizeClass = 0;
        std::vector<DramFrame> frames; //!< M interlinked chunks
        std::uint64_t usedMask = 0;
        unsigned used = 0;
    };

    /**
     * One per-class LIFO of (superChunk, slot) free sub-chunks.
     * Returning an empty super-chunk to ML1 leaves its entries in
     * place as tombstones (its id is never reused); alloc discards
     * them as it pops.  `live` counts the non-tombstone entries, so
     * growth triggers exactly when no real free slot remains.  This
     * keeps super-chunk return O(1) instead of an O(list) erase —
     * tenant-exit storms made that scan quadratic — while preserving
     * the exact §IV-B LIFO pop order.
     */
    struct ClassList
    {
        std::vector<std::pair<std::uint64_t, unsigned>> slots;
        std::uint64_t live = 0;
    };

    Ml1FreeList &ml1_;
    std::vector<SubChunkClass> classes_;
    std::unordered_map<std::uint64_t, SuperChunk> superChunks_;
    std::uint64_t nextSuperId_ = 1;
    std::vector<ClassList> freeSlots_;
    std::uint64_t liveBytes_ = 0;
    std::uint64_t heldChunks_ = 0;

    Counter allocs_, frees_, superChunksCreated_, superChunksReturned_;
};

/**
 * Compresso-style free list of 512B chunks (LIFO).
 *
 * Like the hardware list, it costs memory only for what is in use:
 * the seeded range stays implicit (a cursor plus a count) and only
 * pushed chunks are stored, on top of it.  Pops take the pushed
 * chunks first, then the seeded ones in ascending order.
 */
class ChunkFreeList : public Stated
{
  public:
    explicit ChunkFreeList(std::size_t chunk_bytes = 512);

    /** Seed with chunk_count chunks from base up, in O(1).  The list
     * must be empty. */
    void seed(Addr base, std::uint64_t chunk_count);

    bool empty() const { return size() == 0; }
    std::size_t size() const { return recycled_.size() + freshLeft_; }
    std::size_t chunkBytes() const { return chunkBytes_; }

    Addr pop();
    void push(Addr chunk_addr);

    void dumpStats(StatDump &dump,
                   const std::string &prefix) const override;

  private:
    std::size_t chunkBytes_;
    std::vector<Addr> recycled_; //!< pushed chunks, top at the back
    Addr freshNext_ = 0;         //!< lowest seeded chunk not yet popped
    std::uint64_t freshLeft_ = 0; //!< seeded chunks not yet popped
    Counter pops_, pushes_;
};

} // namespace tmcc

#endif // TMCC_MC_FREE_LIST_HH
