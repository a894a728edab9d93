/**
 * @file
 * The memory-controller architecture interface: what the simulation
 * pipeline sees of "no compression" vs Compresso vs the OS-inspired
 * designs (barebone and TMCC).
 *
 * The one seam between System and an architecture: System builds the
 * controller in its factory and then calls only its hooks -- read,
 * writeback, drain, functionalTouch, dramUsedBytes, hasCtes, placePage,
 * placesByHeat, walkerFetched and dumpCoreStats.  All but read,
 * writeback and dramUsedBytes default to "the architecture lacks the
 * feature", so a new backend is one subclass plus one factory line.
 */

#ifndef TMCC_MC_MEM_CONTROLLER_HH
#define TMCC_MC_MEM_CONTROLLER_HH

#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram_system.hh"

namespace tmcc
{

/** One LLC-miss read reaching the MC. */
struct McReadRequest
{
    unsigned core = 0;
    Addr paddr = 0;
    Tick when = 0;
    bool fromWalker = false; //!< request originated from a page walk
    bool background = false; //!< prefetch (does not block the core)
};

/** What the MC returns to the LLC. */
struct McReadResponse
{
    Tick complete = 0;

    // Classification for Fig. 19 / Fig. 2 / Fig. 18.
    bool cteCacheHit = false;
    bool parallelAccess = false;    //!< embedded-CTE speculative fetch
    bool embeddedMismatch = false;  //!< speculation failed, re-accessed
    bool serializedNoCte = false;   //!< CTE fetched serially from DRAM
    bool hitMl2 = false;            //!< page was compressed (Deflate)

    /** Never set (L2 learns of compressed PTBs from walkerFetched);
     * kept only because perfbench passes it to Hierarchy::fillT. */
    bool fillCompressedPtb = false;

    /** PTB whose embedded CTE the MC lazily patched (§V-A3), now
     * dirty in L2; invalidAddr if none. */
    Addr stalePtb = invalidAddr;
};

/** Abstract MC architecture. */
class MemController : public Stated
{
  public:
    explicit MemController(DramSystem &dram) : dram_(dram) {}
    ~MemController() override = default;

    /** Service an LLC read miss. */
    virtual McReadResponse read(const McReadRequest &req) = 0;

    /**
     * Accept a dirty line leaving L3.  `line_compressed` is the on-chip
     * PTB-encoding bit; the CTE bit vector it would maintain (§V-A4) is
     * not modelled, so no controller reads it.
     */
    virtual void writeback(Addr paddr, Tick when,
                           bool line_compressed) = 0;

    /** Settle background work (migrations, write drains). */
    virtual void drain(Tick when) { dram_.drainAll(when); }

    /**
     * The timing-free read() of functional fast-forward (interval
     * sampling): the access engine calls it, in read()'s place, for
     * every block of page `ppn` fetched from memory — demand, page
     * walk and prefetch alike.  Architectures with translation or
     * placement state keep it warm here — CTE-cache residency,
     * recency, ML2→ML1 migration — without DRAM timing, demand
     * counters or stall bookkeeping.  Default: stateless architectures
     * need nothing.
     */
    virtual void functionalTouch(Ppn /*ppn*/, bool /*is_write*/,
                                 Tick /*now*/)
    {}

    /** Total DRAM bytes this architecture currently uses for data. */
    virtual std::uint64_t dramUsedBytes() const = 0;

    /** Reads resolve a CTE (count CTE hits/misses; place pages). */
    virtual bool hasCtes() const { return false; }

    /** Initial placement of one physical page (set-up, §VI). */
    virtual void placePage(Ppn /*ppn*/) {}

    /** placePage() wants data pages hottest first (touch-counted). */
    virtual bool placesByHeat() const { return false; }

    /** Core `core`'s walker fetched the PTB block at `ptb_addr` (from
     * any level); true when L2 should mark it a compressed PTB. */
    virtual bool walkerFetched(unsigned /*core*/, Addr /*ptb_addr*/)
    {
        return false;
    }

    /** Dump core `core`'s structures owned by the MC under `prefix`. */
    virtual void dumpCoreStats(StatDump &, unsigned /*core*/,
                               const std::string & /*prefix*/) const
    {}

  protected:
    DramSystem &dram_;
};

/** The trivial architecture: physical address == DRAM address. */
class NoCompressionMc : public MemController
{
  public:
    /** `used_bytes`: the physical memory the workload maps. */
    NoCompressionMc(DramSystem &dram, std::uint64_t used_bytes)
        : MemController(dram), usedBytes_(used_bytes)
    {}

    McReadResponse
    read(const McReadRequest &req) override
    {
        McReadResponse resp;
        // Background (prefetch) fills ride idle DRAM slots; the
        // request-level model charges no contention for them.
        resp.complete = req.background
                            ? req.when
                            : dram_.read(req.paddr, req.when);
        reads_.inc();
        return resp;
    }

    void
    writeback(Addr paddr, Tick when, bool /*line_compressed*/) override
    {
        dram_.write(paddr, when);
        writebacks_.inc();
    }

    std::uint64_t
    dramUsedBytes() const override
    {
        return usedBytes_;
    }

    void
    dumpStats(StatDump &dump, const std::string &prefix) const override
    {
        dump.set(prefix + ".reads", reads_.value());
        dump.set(prefix + ".writebacks", writebacks_.value());
    }

  private:
    Counter reads_, writebacks_;
    std::uint64_t usedBytes_;
};

} // namespace tmcc

#endif // TMCC_MC_MEM_CONTROLLER_HH
