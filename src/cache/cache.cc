#include "cache/cache.hh"

#include <sstream>

#include "common/bitops.hh"
#include "common/log.hh"

namespace tmcc
{

Cache::Cache(std::string name, std::size_t size_bytes, unsigned assoc)
    : name_(std::move(name)), assoc_(assoc)
{
    fatalIf(size_bytes == 0, name_ + ": size must be nonzero");
    fatalIf(assoc == 0, name_ + ": associativity must be nonzero");
    fatalIf(assoc > simd::maxWays,
            name_ + ": associativity " + std::to_string(assoc) +
                " exceeds the probe engine's " +
                std::to_string(simd::maxWays) + "-way set limit");
    fatalIf(size_bytes % (blockSize * assoc) != 0,
            name_ + ": size must be a multiple of assoc x 64B");
    sets_ = size_bytes / (blockSize * assoc);
    setsPow2_ = isPowerOf2(sets_);
    setMask_ = setsPow2_ ? sets_ - 1 : 0;

    // Pad each set's rows: padding ways hold a tag no probe can match
    // and that never reads as free, and a rank no update ages and no
    // victim pick can choose.
    wstride_ = simd::padWays<std::uint32_t>(assoc_);
    rstride_ = simd::padRanks(assoc_);
    tags_.assign(sets_ * wstride_, simd::padKey);
    flags_.assign(sets_ * wstride_, 0);
    for (std::size_t s = 0; s < sets_; ++s)
        for (unsigned w = 0; w < assoc_; ++w)
            tags_[s * wstride_ + w] = simd::invalidKey;
    simd::initRankRows(ranks_, sets_, assoc_, rstride_);
}

void
Cache::keyOutOfRange(Addr addr) const
{
    std::ostringstream msg;
    msg << name_ << ": address 0x" << std::hex << addr
        << " is past the 32-bit block-number tag range (cache addresses"
           " must be below 0x3fffffff80, just under 256 GiB)";
    panic(msg.str());
}

void
Cache::dumpStats(StatDump &dump, const std::string &prefix) const
{
    dump.set(prefix + ".hits", hits_.value());
    dump.set(prefix + ".misses", misses_.value());
    dump.set(prefix + ".evictions", evictions_.value());
    dump.set(prefix + ".dirty_evictions", dirtyEvictions_.value());
    const auto total = hits_.value() + misses_.value();
    dump.set(prefix + ".miss_rate",
             total ? static_cast<double>(misses_.value()) /
                         static_cast<double>(total)
                   : 0.0);
}

} // namespace tmcc
