#include "vm/tlb.hh"

#include "common/bitops.hh"
#include "common/log.hh"

namespace tmcc
{

Tlb::Tlb(unsigned entries, unsigned assoc) : assoc_(assoc)
{
    fatalIf(assoc == 0, "TLB associativity must be nonzero");
    fatalIf(entries % assoc != 0, "TLB entries must divide by assoc");
    fatalIf(assoc > simd::maxWays,
            "TLB associativity " + std::to_string(assoc) +
                " exceeds the probe engine's " +
                std::to_string(simd::maxWays) + "-way set limit");
    sets_ = entries / assoc;
    fatalIf(!isPowerOf2(sets_), "TLB set count must be a power of two");

    // Pad each set's rows: padding ways hold a key no probe can match
    // (and that never reads as invalid), and a rank no update ages and
    // no victim pick can choose.
    wstride_ = simd::padWays<std::uint64_t>(assoc_);
    rstride_ = simd::padRanks(assoc_);
    keys_.assign(sets_ * wstride_, padKey);
    ppns_.assign(sets_ * wstride_, 0);
    for (std::size_t s = 0; s < sets_; ++s)
        for (unsigned w = 0; w < assoc_; ++w)
            keys_[s * wstride_ + w] = 0;
    simd::initRankRows(ranks_, sets_, assoc_, rstride_);
}

void
Tlb::insertHuge(Vpn vpn_base, Ppn ppn_base)
{
    fatalIf((vpn_base & ((hugePageSize / pageSize) - 1)) != 0,
            "huge TLB entry must be 2MB aligned");
    install(vpn_base, ppn_base, true);
}

void
Tlb::flush()
{
    // Clear the flag bits of real ways only (padding keys must keep
    // the Valid bit so the install victim scan never surfaces them).
    for (std::size_t s = 0; s < sets_; ++s)
        for (unsigned w = 0; w < assoc_; ++w)
            keys_[s * wstride_ + w] &= ~((std::uint64_t{1} << flagBits) - 1);
    anyHuge_ = false;
}

void
Tlb::dumpStats(StatDump &dump, const std::string &prefix) const
{
    dump.set(prefix + ".hits", hits_.value());
    dump.set(prefix + ".misses", misses_.value());
    const auto total = hits_.value() + misses_.value();
    dump.set(prefix + ".miss_rate",
             total ? static_cast<double>(misses_.value()) /
                         static_cast<double>(total)
                   : 0.0);
}

} // namespace tmcc
