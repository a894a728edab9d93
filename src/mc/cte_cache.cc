#include "mc/cte_cache.hh"

#include <sstream>

#include "common/bitops.hh"
#include "common/log.hh"

namespace tmcc
{

CteCache::CteCache(std::size_t size_bytes, unsigned pages_per_block,
                   unsigned assoc)
    : pagesPerBlock_(pages_per_block), assoc_(assoc)
{
    fatalIf(pages_per_block == 0, "CTE block must cover >= 1 page");
    fatalIf(assoc == 0, "CTE cache associativity must be >= 1");
    fatalIf(assoc > simd::maxWays,
            "CTE cache associativity " + std::to_string(assoc) +
                " exceeds the probe engine's " +
                std::to_string(simd::maxWays) + "-way set limit");
    const std::size_t blocks = size_bytes / blockSize;
    fatalIf(blocks < assoc,
            "CTE cache of " + std::to_string(size_bytes) +
                " bytes holds " + std::to_string(blocks) + " " +
                std::to_string(blockSize) +
                "B blocks, too few for even one " +
                std::to_string(assoc) + "-way set");
    fatalIf(blocks % assoc != 0,
            "CTE cache associativity (" + std::to_string(assoc) +
                ") must divide the block count (" +
                std::to_string(blocks) + ")");
    sets_ = blocks / assoc;
    blockPow2_ = isPowerOf2(pages_per_block);
    blockShift_ = blockPow2_ ? floorLog2(pages_per_block) : 0;
    setsPow2_ = isPowerOf2(sets_);
    setMask_ = setsPow2_ ? sets_ - 1 : 0;
    // Pad each set's rows: padding ways hold a tag no probe can match
    // and that never reads as free, and a rank no update ages and no
    // victim pick can choose.
    wstride_ = simd::padWays<std::uint32_t>(assoc_);
    rstride_ = simd::padRanks(assoc_);
    tags_.assign(sets_ * wstride_, simd::padKey);
    for (std::size_t s = 0; s < sets_; ++s)
        for (unsigned w = 0; w < assoc_; ++w)
            tags_[s * wstride_ + w] = simd::invalidKey;
    simd::initRankRows(ranks_, sets_, assoc_, rstride_);
}

void
CteCache::blockOutOfRange(Ppn ppn) const
{
    std::ostringstream msg;
    msg << "CTE cache: PPN 0x" << std::hex << ppn
        << " is past the 32-bit CTE-block key range";
    panic(msg.str());
}

void
CteCache::dumpStats(StatDump &dump, const std::string &prefix) const
{
    dump.set(prefix + ".hits", hits_.value());
    dump.set(prefix + ".misses", misses_.value());
    const auto total = hits_.value() + misses_.value();
    dump.set(prefix + ".hit_rate",
             total ? static_cast<double>(hits_.value()) /
                         static_cast<double>(total)
                   : 0.0);
}

} // namespace tmcc
