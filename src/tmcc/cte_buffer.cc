#include "tmcc/cte_buffer.hh"

#include <string>

#include "common/log.hh"

namespace tmcc
{

CteBuffer::CteBuffer(unsigned entries, std::size_t ppns)
{
    fatalIf(entries == 0, "CTE buffer needs at least one entry "
                          "(cteBufferEntries = 0)");
    fatalIf(entries > maxEntries,
            "CTE buffer holds at most " + std::to_string(maxEntries) +
                " entries (cteBufferEntries = " + std::to_string(entries) +
                ")");
    slots_.resize(entries);
    index_.assign(ppns, nil);
}

void
CteBuffer::flush()
{
    for (SlotId s = 0; s < used_; ++s)
        index_[slots_[s].entry.ppn] = nil;
    used_ = 0;
    head_ = tail_ = nil;
}

void
CteBuffer::dumpStats(StatDump &dump, const std::string &prefix) const
{
    dump.set(prefix + ".inserts", inserts_.value());
    dump.set(prefix + ".hits", hits_.value());
    dump.set(prefix + ".misses", misses_.value());
    dump.set(prefix + ".stale_updates", staleUpdates_.value());
}

} // namespace tmcc
