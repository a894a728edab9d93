/**
 * @file
 * The Recency List of §IV-B: a doubly linked list over the pages in ML1
 * whose head is the hottest and tail the coldest page.  ML1 updates it
 * for ~1% of randomly chosen accesses; eviction victims come from the
 * tail.  Incompressible pages are removed so they are not uselessly
 * recompressed, and re-enter with 1% probability after a writeback.
 *
 * The real structure stores PPN + two pointers per element; that DRAM
 * overhead ("Recency List uses 0.4% of DRAM", §V-A6) is reported by
 * overheadBytes().
 *
 * The model threads the list through dense PPN-indexed prev/next links
 * (8 bytes per frame, grown for a larger PPN), so every operation is a
 * few array loads with no hashing or allocation.  PPNs must fit 32 bits.
 */

#ifndef TMCC_MC_RECENCY_LIST_HH
#define TMCC_MC_RECENCY_LIST_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace tmcc
{

/** Sampled-LRU list of ML1 pages. */
class RecencyList : public Stated
{
  public:
    static constexpr std::uint64_t defaultSeed = 0x5eed;

    /** The link table starts out covering `ppns` frames. */
    explicit RecencyList(double sample_probability = 0.01,
                         std::uint64_t seed = defaultSeed,
                         std::size_t ppns = 0);

    /** Add a page at the hot end (new arrivals in ML1). */
    void insertHot(Ppn ppn);

    /** Add a page at the cold end (deferred eviction victims). */
    void insertCold(Ppn ppn);

    /**
     * Observe an access to `ppn`; with the sampling probability the
     * page's element moves to the hot end.
     */
    void touch(Ppn ppn);

    /** Coldest page, or invalidAddr if empty. */
    Ppn coldest() const;

    /** Remove and return the coldest page. */
    Ppn popColdest();

    /** Remove a page (migrated to ML2 or marked incompressible). */
    void remove(Ppn ppn);

    bool
    contains(Ppn ppn) const
    {
        return ppn < links_.size() && links_[ppn].next != absent;
    }

    std::size_t size() const { return size_; }

    /**
     * Called on a writeback to an incompressible ML1 page: with 1%
     * probability re-admit it to the list (its compressibility may have
     * changed).  Returns true if re-admitted.
     */
    bool maybeReadmit(Ppn ppn);

    /** DRAM the list costs: PPN + 2 pointers per tracked page. */
    std::uint64_t
    overheadBytes() const
    {
        return size_ * 3 * 8;
    }

    void dumpStats(StatDump &dump,
                   const std::string &prefix) const override;

  private:
    /** End of the list; `absent` marks an untracked page's links. */
    static constexpr std::uint32_t nil = ~std::uint32_t{0};
    static constexpr std::uint32_t absent = nil - 1;

    /** One frame's neighbours; both `absent` while untracked. */
    struct Link
    {
        std::uint32_t prev = absent; //!< towards the hot head
        std::uint32_t next = absent; //!< towards the cold tail
    };

    void unlink(std::uint32_t ppn);
    void link(std::uint32_t ppn, std::uint32_t prev, std::uint32_t next);

    /** Grow the link table to cover `ppn` (fatal past 32 bits). */
    void ensure(Ppn ppn);

    double sampleP_;
    Rng rng_;
    std::vector<Link> links_;   //!< indexed by PPN
    std::uint32_t head_ = nil;  //!< hottest
    std::uint32_t tail_ = nil;  //!< coldest
    std::size_t size_ = 0;
    Counter touches_, promotions_, evictions_, readmissions_;
};

} // namespace tmcc

#endif // TMCC_MC_RECENCY_LIST_HH
