#include "tmcc/cte_buffer.hh"

#include <algorithm>

#include "common/log.hh"

namespace tmcc
{

CteBuffer::CteBuffer(unsigned entries)
{
    fatalIf(entries == 0, "CTE buffer needs at least one entry "
                          "(cteBufferEntries = 0)");
    slots_.resize(entries);
    // At most half full, so probe chains stay short and find() always
    // reaches an empty bucket.
    unsigned bits = 1;
    while ((std::size_t{1} << bits) < 2 * std::size_t{entries})
        ++bits;
    index_.assign(std::size_t{1} << bits, nil);
    mask_ = index_.size() - 1;
    hashShift_ = 64 - bits;
}

void
CteBuffer::flush()
{
    std::fill(index_.begin(), index_.end(), nil);
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
