/**
 * @file
 * The per-core CTE Buffer of §V-A3 / Fig. 10: a 64-entry table in L2,
 * keyed by PPN, filled with the CTEs embedded in every compressed PTB
 * the page walker fetches.  When L2 later sees an access whose PPN hits
 * the buffer, the embedded CTE is piggybacked toward the MC so the MC
 * can fetch data and the real CTE from DRAM in parallel.  Responses
 * carry the correct CTE back; a mismatch triggers the lazy PTB update
 * at the recorded PTB physical address.
 *
 * The table is fully associative with exact LRU replacement.  It is
 * consulted on every LLC-bound access and written eight times per
 * compressed-PTB fetch, so every operation is constant time:
 *
 *  - an open-addressing PPN -> slot index (linear probing, backward-
 *    shift deletion, at most half full) finds an entry in one or two
 *    probes;
 *  - an intrusive doubly-linked list threaded through the slots keeps
 *    recency: insert and lookup move the entry to the head, eviction
 *    takes the tail, and a response update leaves recency alone.
 *
 * Entries leave only by eviction or flush(), and free slots fill
 * before anything is evicted, so the tail is always the entry least
 * recently inserted or looked up.  Which slot an entry occupies is
 * never observable.
 */

#ifndef TMCC_TMCC_CTE_BUFFER_HH
#define TMCC_TMCC_CTE_BUFFER_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace tmcc
{

/** One CTE Buffer (64 entries, ~1KB total; §V-A6). */
class CteBuffer : public Stated
{
  public:
    /** `entries` must be at least 1 (fatal otherwise). */
    explicit CteBuffer(unsigned entries = 64);

    struct Entry
    {
        Ppn ppn = 0;
        bool hasCte = false;        //!< some PTB slots carry no CTE
        std::uint64_t cte = 0;      //!< truncated embedded CTE
        Addr ptbAddr = invalidAddr; //!< PTB holding the (stale?) CTE
    };

    /** Insert one key-value pair from a fetched compressed PTB. */
    void
    insert(Ppn ppn, bool has_cte, std::uint64_t cte, Addr ptb_addr)
    {
        inserts_.inc();
        std::uint32_t s = find(ppn);
        if (s != nil) {
            unlink(s); // resident: refresh in place
        } else {
            if (used_ < slots_.size()) {
                s = used_++;
            } else {
                s = tail_; // full: evict the least recently used
                unlink(s);
                unindex(s);
            }
            slots_[s].entry.ppn = ppn;
            index(s);
        }
        Entry &e = slots_[s].entry;
        e.hasCte = has_cte;
        e.cte = cte;
        e.ptbAddr = ptb_addr;
        pushFront(s);
    }

    /**
     * Look up by PPN; nullptr on miss.  The returned pointer aliases
     * the entry's slot, which the next insert or flush may reuse —
     * read it immediately (exactly how the pipeline and tests use it).
     */
    const Entry *
    lookup(Ppn ppn)
    {
        const std::uint32_t s = find(ppn);
        if (s == nil) {
            misses_.inc();
            return nullptr;
        }
        hits_.inc();
        if (s != head_) {
            unlink(s);
            pushFront(s);
        }
        return &slots_[s].entry;
    }

    /**
     * Response handling (§V-A3): store the correct CTE into the entry;
     * returns the PTB address to lazily update if the entry existed and
     * its CTE was missing or mismatched, else invalidAddr.
     */
    Addr
    updateOnResponse(Ppn ppn, std::uint64_t correct_cte)
    {
        const std::uint32_t s = find(ppn);
        if (s == nil)
            return invalidAddr;
        Entry &e = slots_[s].entry;
        const bool stale = !e.hasCte || e.cte != correct_cte;
        e.hasCte = true;
        e.cte = correct_cte;
        if (stale) {
            staleUpdates_.inc();
            return e.ptbAddr;
        }
        return invalidAddr;
    }

    void flush();

    void dumpStats(StatDump &dump,
                   const std::string &prefix) const override;

  private:
    /** Empty index bucket / end of the recency list. */
    static constexpr std::uint32_t nil = ~std::uint32_t{0};

    /** One entry plus its recency-list links. */
    struct Slot
    {
        Entry entry;
        std::uint32_t prev = nil; //!< towards the MRU head
        std::uint32_t next = nil; //!< towards the LRU tail
    };

    /** Home bucket: Fibonacci hashing spreads runs of adjacent PPNs. */
    std::size_t
    home(Ppn ppn) const
    {
        return static_cast<std::size_t>(
            (ppn * 0x9e3779b97f4a7c15ULL) >> hashShift_);
    }

    /** Slot holding `ppn`, or nil.  The index is never full. */
    std::uint32_t
    find(Ppn ppn) const
    {
        for (std::size_t i = home(ppn);; i = (i + 1) & mask_) {
            const std::uint32_t s = index_[i];
            if (s == nil || slots_[s].entry.ppn == ppn)
                return s;
        }
    }

    /** Add slot `s` (keyed by its entry's PPN) to the index. */
    void
    index(std::uint32_t s)
    {
        std::size_t i = home(slots_[s].entry.ppn);
        while (index_[i] != nil)
            i = (i + 1) & mask_;
        index_[i] = s;
    }

    /**
     * Remove slot `s` from the index.  Backward-shift deletion pulls
     * the displaced buckets of the probe chain back into the hole, so
     * find() never needs tombstones.
     */
    void
    unindex(std::uint32_t s)
    {
        std::size_t hole = home(slots_[s].entry.ppn);
        while (index_[hole] != s)
            hole = (hole + 1) & mask_;
        for (std::size_t j = (hole + 1) & mask_; index_[j] != nil;
             j = (j + 1) & mask_) {
            const std::size_t h = home(slots_[index_[j]].entry.ppn);
            // Does bucket j's probe chain (h..j, wrapping) pass the hole?
            if (((j - h) & mask_) >= ((j - hole) & mask_)) {
                index_[hole] = index_[j];
                hole = j;
            }
        }
        index_[hole] = nil;
    }

    void
    unlink(std::uint32_t s)
    {
        const Slot &n = slots_[s];
        (n.prev == nil ? head_ : slots_[n.prev].next) = n.next;
        (n.next == nil ? tail_ : slots_[n.next].prev) = n.prev;
    }

    void
    pushFront(std::uint32_t s)
    {
        Slot &n = slots_[s];
        n.prev = nil;
        n.next = head_;
        (head_ == nil ? tail_ : slots_[head_].prev) = s;
        head_ = s;
    }

    std::vector<Slot> slots_;          //!< capacity-many entries
    std::uint32_t used_ = 0;           //!< slots [0, used_) are live
    std::uint32_t head_ = nil;         //!< most recently used
    std::uint32_t tail_ = nil;         //!< least recently used
    std::vector<std::uint32_t> index_; //!< PPN-hashed slot numbers
    std::size_t mask_ = 0;             //!< index_.size() - 1
    unsigned hashShift_ = 0;           //!< 64 - log2(index_.size())

    Counter inserts_, hits_, misses_, staleUpdates_;
};

} // namespace tmcc

#endif // TMCC_TMCC_CTE_BUFFER_HH
