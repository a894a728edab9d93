#include "mc/recency_list.hh"

#include "common/log.hh"

namespace tmcc
{

RecencyList::RecencyList(double sample_probability, std::uint64_t seed,
                         std::size_t ppns)
    : sampleP_(sample_probability), rng_(seed), links_(ppns)
{}

void
RecencyList::ensure(Ppn ppn)
{
    fatalIf(ppn >= absent, "recency list PPN does not fit 32 bits");
    if (ppn >= links_.size())
        links_.resize(ppn + 1);
}

void
RecencyList::unlink(std::uint32_t ppn)
{
    Link &l = links_[ppn];
    (l.prev == nil ? head_ : links_[l.prev].next) = l.next;
    (l.next == nil ? tail_ : links_[l.next].prev) = l.prev;
    l.prev = l.next = absent;
    --size_;
}

void
RecencyList::link(std::uint32_t ppn, std::uint32_t prev, std::uint32_t next)
{
    links_[ppn] = {prev, next};
    (prev == nil ? head_ : links_[prev].next) = ppn;
    (next == nil ? tail_ : links_[next].prev) = ppn;
    ++size_;
}

void
RecencyList::insertHot(Ppn ppn)
{
    ensure(ppn);
    if (contains(ppn))
        unlink(ppn);
    link(ppn, nil, head_);
}

void
RecencyList::insertCold(Ppn ppn)
{
    ensure(ppn);
    if (contains(ppn))
        unlink(ppn);
    link(ppn, tail_, nil);
}

void
RecencyList::touch(Ppn ppn)
{
    touches_.inc();
    if (!rng_.chance(sampleP_))
        return;
    if (!contains(ppn))
        return; // not tracked (e.g., incompressible)
    promotions_.inc();
    unlink(ppn);
    link(ppn, nil, head_);
}

Ppn
RecencyList::coldest() const
{
    return size_ == 0 ? invalidAddr : tail_;
}

Ppn
RecencyList::popColdest()
{
    panicIf(size_ == 0, "recency list underflow");
    evictions_.inc();
    const std::uint32_t ppn = tail_;
    unlink(ppn);
    return ppn;
}

void
RecencyList::remove(Ppn ppn)
{
    if (contains(ppn))
        unlink(ppn);
}

bool
RecencyList::maybeReadmit(Ppn ppn)
{
    if (contains(ppn) || !rng_.chance(sampleP_))
        return false;
    readmissions_.inc();
    insertHot(ppn);
    return true;
}

void
RecencyList::dumpStats(StatDump &dump, const std::string &prefix) const
{
    dump.set(prefix + ".size", size_);
    dump.set(prefix + ".touches", touches_.value());
    dump.set(prefix + ".promotions", promotions_.value());
    dump.set(prefix + ".evictions", evictions_.value());
    dump.set(prefix + ".readmissions", readmissions_.value());
    dump.set(prefix + ".overhead_bytes", overheadBytes());
}

} // namespace tmcc
