#include "mc/free_list.hh"

#include <tuple>

#include "common/log.hh"

namespace tmcc
{

// ---------------------------------------------------------------------
// Ml1FreeList
// ---------------------------------------------------------------------

void
Ml1FreeList::seed(DramFrame first, std::uint64_t count)
{
    frames_.reserve(frames_.size() + count);
    // Push in reverse so pops come out in ascending order.
    for (std::uint64_t i = count; i-- > 0;)
        frames_.push_back(first + i);
}

DramFrame
Ml1FreeList::pop()
{
    panicIf(frames_.empty(), "ML1 free list underflow");
    pops_.inc();
    const DramFrame f = frames_.back();
    frames_.pop_back();
    return f;
}

void
Ml1FreeList::push(DramFrame frame)
{
    pushes_.inc();
    frames_.push_back(frame);
}

void
Ml1FreeList::dumpStats(StatDump &dump, const std::string &prefix) const
{
    dump.set(prefix + ".size", frames_.size());
    dump.set(prefix + ".pops", pops_.value());
    dump.set(prefix + ".pushes", pushes_.value());
}

// ---------------------------------------------------------------------
// Ml2FreeLists
// ---------------------------------------------------------------------

Ml2FreeLists::Ml2FreeLists(Ml1FreeList &ml1)
    : Ml2FreeLists(ml1, std::vector<SubChunkClass>(subChunkClasses.begin(),
                                                   subChunkClasses.end()))
{}

Ml2FreeLists::Ml2FreeLists(Ml1FreeList &ml1,
                           std::vector<SubChunkClass> classes)
    : ml1_(ml1), classes_(std::move(classes))
{
    fatalIf(classes_.empty(), "ML2 needs at least one sub-chunk class");
    for (const SubChunkClass &c : classes_)
        fatalIf(c.subChunksN < 1 || c.subChunksN > 64,
                "sub-chunk class N=" + std::to_string(c.subChunksN) +
                    " exceeds the 64-bit slot mask");
    freeSlots_.resize(classes_.size());
}

unsigned
Ml2FreeLists::classFor(std::size_t bytes)
{
    for (unsigned c = 0; c < subChunkClasses.size(); ++c)
        if (bytes <= subChunkClasses[c].bytes)
            return c;
    return static_cast<unsigned>(subChunkClasses.size());
}

bool
Ml2FreeLists::alloc(unsigned cls, SubChunk &out)
{
    panicIf(cls >= classes_.size(), "bad sub-chunk class");
    ClassList &list = freeSlots_[cls];

    if (list.live == 0) {
        // Grow ML2: take M chunks from ML1 and carve a super-chunk.
        list.slots.clear(); // only tombstones remain, if anything
        const SubChunkClass &c = classes_[cls];
        if (ml1_.size() < c.chunksM)
            return false;
        SuperChunk sc;
        sc.sizeClass = cls;
        for (unsigned i = 0; i < c.chunksM; ++i)
            sc.frames.push_back(ml1_.pop());
        heldChunks_ += c.chunksM;
        const std::uint64_t id = nextSuperId_++;
        superChunks_.emplace(id, std::move(sc));
        superChunksCreated_.inc();
        // Newly carved slots go on top of the list (§IV-B).
        for (unsigned slot = c.subChunksN; slot-- > 0;)
            list.slots.emplace_back(id, slot);
        list.live += c.subChunksN;
    }

    // Pop the top live entry, discarding tombstones of returned
    // super-chunks on the way (ids are never reused).
    std::uint64_t id;
    unsigned slot;
    std::unordered_map<std::uint64_t, SuperChunk>::iterator sc_it;
    do {
        std::tie(id, slot) = list.slots.back();
        list.slots.pop_back();
        sc_it = superChunks_.find(id);
    } while (sc_it == superChunks_.end());
    --list.live;
    SuperChunk &sc = sc_it->second;
    sc.usedMask |= 1ULL << slot;
    ++sc.used;

    const SubChunkClass &c = classes_[cls];
    out.superChunk = id;
    out.slot = slot;
    out.sizeClass = cls;
    // Sub-chunk `slot` occupies bytes [slot*size, (slot+1)*size) of the
    // concatenated M chunks.
    const std::uint64_t byte_off =
        static_cast<std::uint64_t>(slot) * c.bytes;
    const unsigned frame_idx = static_cast<unsigned>(byte_off / pageSize);
    out.dramAddr = (sc.frames[frame_idx] << pageShift) +
                   (byte_off & (pageSize - 1));
    liveBytes_ += c.bytes;
    allocs_.inc();
    return true;
}

void
Ml2FreeLists::free(const SubChunk &sub)
{
    frees_.inc();
    auto it = superChunks_.find(sub.superChunk);
    panicIf(it == superChunks_.end(), "free of unknown super-chunk");
    SuperChunk &sc = it->second;
    panicIf((sc.usedMask & (1ULL << sub.slot)) == 0,
            "double free of sub-chunk");
    sc.usedMask &= ~(1ULL << sub.slot);
    --sc.used;
    const SubChunkClass &c = classes_[sc.sizeClass];
    liveBytes_ -= c.bytes;

    if (sc.used == 0) {
        // Whole super-chunk free: return chunks to ML1 (§IV-B).  Its
        // N-1 slots still in the class list become tombstones that
        // alloc() discards lazily; eagerly erasing them here scanned
        // the whole list and went quadratic under churn.
        freeSlots_[sc.sizeClass].live -= c.subChunksN - 1;
        for (DramFrame f : sc.frames)
            ml1_.push(f);
        heldChunks_ -= c.chunksM;
        superChunks_.erase(it);
        superChunksReturned_.inc();
    } else {
        // Transitioning to having a free sub-chunk tracks at the top.
        ClassList &list = freeSlots_[sc.sizeClass];
        list.slots.emplace_back(sub.superChunk, sub.slot);
        ++list.live;
    }
}

std::uint64_t
Ml2FreeLists::freeSlotCount(unsigned cls) const
{
    panicIf(cls >= classes_.size(), "bad sub-chunk class");
    return freeSlots_[cls].live;
}

void
Ml2FreeLists::dumpStats(StatDump &dump, const std::string &prefix) const
{
    dump.set(prefix + ".allocs", allocs_.value());
    dump.set(prefix + ".frees", frees_.value());
    dump.set(prefix + ".super_chunks", superChunks_.size());
    dump.set(prefix + ".super_chunks_created",
             superChunksCreated_.value());
    dump.set(prefix + ".super_chunks_returned",
             superChunksReturned_.value());
    dump.set(prefix + ".live_bytes", liveBytes_);
    dump.set(prefix + ".held_chunks", heldChunks_);
}

// ---------------------------------------------------------------------
// ChunkFreeList
// ---------------------------------------------------------------------

ChunkFreeList::ChunkFreeList(std::size_t chunk_bytes)
    : chunkBytes_(chunk_bytes)
{}

void
ChunkFreeList::seed(Addr base, std::uint64_t chunk_count)
{
    panicIf(!empty(), "chunk free list seeded while non-empty");
    freshNext_ = base;
    freshLeft_ = chunk_count;
}

Addr
ChunkFreeList::pop()
{
    panicIf(empty(), "chunk free list underflow");
    pops_.inc();
    if (!recycled_.empty()) {
        const Addr a = recycled_.back();
        recycled_.pop_back();
        return a;
    }
    const Addr a = freshNext_;
    freshNext_ += chunkBytes_;
    --freshLeft_;
    return a;
}

void
ChunkFreeList::push(Addr chunk_addr)
{
    pushes_.inc();
    recycled_.push_back(chunk_addr);
}

void
ChunkFreeList::dumpStats(StatDump &dump, const std::string &prefix) const
{
    dump.set(prefix + ".size", size());
    dump.set(prefix + ".pops", pops_.value());
    dump.set(prefix + ".pushes", pushes_.value());
}

} // namespace tmcc
