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
 *  - a dense PPN -> slot table (2 bytes per frame, sized for the
 *    physical pool up front and grown for a larger PPN) finds an entry
 *    in one load, with no hashing or probing;
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
    /**
     * `entries` must be in [1, maxEntries] (fatal otherwise); the PPN
     * table starts out covering `ppns` frames.
     */
    explicit CteBuffer(unsigned entries = 64, std::size_t ppns = 0);

    /** Slot numbers are 16 bits wide, one value reserved for nil. */
    static constexpr unsigned maxEntries = 0xfffe;

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
        if (ppn >= index_.size())
            index_.resize(ppn + 1, nil);
        SlotId s = index_[ppn];
        if (s != nil) {
            unlink(s); // resident: refresh in place
        } else {
            if (used_ < slots_.size()) {
                s = used_++;
            } else {
                s = tail_; // full: evict the least recently used
                unlink(s);
                index_[slots_[s].entry.ppn] = nil;
            }
            slots_[s].entry.ppn = ppn;
            index_[ppn] = s;
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
        const SlotId s = find(ppn);
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
        const SlotId s = find(ppn);
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
    /** Slot number; nil marks a PPN with no slot and ends the list. */
    using SlotId = std::uint16_t;
    static constexpr SlotId nil = 0xffff;

    /** One entry plus its recency-list links. */
    struct Slot
    {
        Entry entry;
        SlotId prev = nil; //!< towards the MRU head
        SlotId next = nil; //!< towards the LRU tail
    };

    /** Slot holding `ppn`, or nil. */
    SlotId
    find(Ppn ppn) const
    {
        return ppn < index_.size() ? index_[ppn] : nil;
    }

    void
    unlink(SlotId s)
    {
        const Slot &n = slots_[s];
        (n.prev == nil ? head_ : slots_[n.prev].next) = n.next;
        (n.next == nil ? tail_ : slots_[n.next].prev) = n.prev;
    }

    void
    pushFront(SlotId s)
    {
        Slot &n = slots_[s];
        n.prev = nil;
        n.next = head_;
        (head_ == nil ? tail_ : slots_[head_].prev) = s;
        head_ = s;
    }

    std::vector<Slot> slots_;    //!< capacity-many entries
    SlotId used_ = 0;            //!< slots [0, used_) are live
    SlotId head_ = nil;          //!< most recently used
    SlotId tail_ = nil;          //!< least recently used
    std::vector<SlotId> index_;  //!< PPN -> slot, nil where absent

    Counter inserts_, hits_, misses_, staleUpdates_;
};

} // namespace tmcc

#endif // TMCC_TMCC_CTE_BUFFER_HH
