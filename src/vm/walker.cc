#include "vm/walker.hh"

#include "common/bitops.hh"
#include "common/log.hh"

namespace tmcc
{

PageWalkCache::PageWalkCache(unsigned entries, unsigned assoc)
    : assoc_(assoc)
{
    fatalIf(entries % assoc != 0, "PWC entries must divide by assoc");
    sets_ = entries / assoc;
    fatalIf(!isPowerOf2(sets_), "PWC sets must be a power of two");
    entries_.resize(entries);
}

std::uint64_t
PageWalkCache::makeKey(unsigned level, Addr vaddr)
{
    // The level-N entry covers a 9*(N-1)+12 bit region.
    const Addr prefix = vaddr >> (pageShift + 9 * (level - 1));
    return (prefix << 3) | level;
}

bool
PageWalkCache::lookup(unsigned level, Addr vaddr, Ppn &table_ppn)
{
    const std::uint64_t key = makeKey(level, vaddr);
    Entry *base = &entries_[(key % sets_) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        Entry &e = base[w];
        if (e.valid && e.key == key) {
            e.lru = ++lruClock_;
            table_ppn = e.table;
            hits_.inc();
            return true;
        }
    }
    misses_.inc();
    return false;
}

void
PageWalkCache::insert(unsigned level, Addr vaddr, Ppn table_ppn)
{
    const std::uint64_t key = makeKey(level, vaddr);
    Entry *base = &entries_[(key % sets_) * assoc_];
    Entry *victim = &base[0];
    for (unsigned w = 0; w < assoc_; ++w) {
        Entry &e = base[w];
        if (e.valid && e.key == key) {
            victim = &e;
            break;
        }
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lru < victim->lru)
            victim = &e;
    }
    victim->key = key;
    victim->table = table_ppn;
    victim->valid = true;
    victim->lru = ++lruClock_;
}

void
PageWalkCache::dumpStats(StatDump &dump, const std::string &prefix) const
{
    dump.set(prefix + ".hits", hits_.value());
    dump.set(prefix + ".misses", misses_.value());
}

Walker::Walker(const PageTable &table) : table_(table) {}

WalkPlan
Walker::plan(Addr vaddr)
{
    walks_.inc();
    WalkPlan out;

    const WalkResult full = table_.walk(vaddr);
    out.valid = full.valid;
    out.huge = full.huge;
    out.ppn = full.ppn;
    if (!full.valid) {
        out.fetches = full.steps; // faulting walk still fetched these
        return out;
    }

    // Deepest PWC hit: an entry at level N gives the PPN of the
    // level-(N-1) table, skipping fetches at levels 4..N.
    unsigned start_level = 4;
    for (unsigned level = 2; level <= 4; ++level) {
        Ppn table_ppn = 0;
        if (pwc_.lookup(level, vaddr, table_ppn)) {
            out.pwcHitLevel = level;
            start_level = level - 1;
            pwcSkips_.inc(4 - start_level);
            break;
        }
    }

    for (const WalkStep &step : full.steps) {
        if (step.level > start_level)
            continue;
        out.fetches.push_back(step);
        stepsFetched_.inc();
    }

    // Refill the PWC with what this walk learned (levels 4..2 entries
    // point at the next table; huge walks stop at level 2).
    for (const WalkStep &step : full.steps) {
        if (step.level >= 2 && !(full.huge && step.level == 2))
            pwc_.insert(step.level, vaddr, step.nextPpn);
    }
    return out;
}

void
Walker::dumpStats(StatDump &dump, const std::string &prefix) const
{
    dump.set(prefix + ".walks", walks_.value());
    dump.set(prefix + ".steps_fetched", stepsFetched_.value());
    dump.set(prefix + ".pwc_skips", pwcSkips_.value());
    pwc_.dumpStats(dump, prefix + ".pwc");
}

} // namespace tmcc
