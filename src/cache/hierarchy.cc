#include "cache/hierarchy.hh"

#include "common/log.hh"

namespace tmcc
{

Hierarchy::Hierarchy(const HierarchyConfig &cfg, unsigned cores)
    : cfg_(cfg)
{
    fatalIf(cores == 0, "hierarchy needs at least one core");
    if (cfg.prefetchers) {
        // One demand access raises at most a next-line proposal plus a
        // stride burst at each of L1 and L2; the fixed-capacity sink
        // must hold them all.
        const std::size_t fanout = 2 + std::size_t{cfg.strideDegreeL1} +
                                   cfg.strideDegreeL2;
        constexpr std::size_t cap =
            decltype(SmallOutcome::prefetches)::capacity;
        fatalIf(fanout > cap,
                "prefetch fan-out 2 + strideDegreeL1 + strideDegreeL2 = " +
                    std::to_string(fanout) +
                    " exceeds the per-access proposal capacity " +
                    std::to_string(cap));
    }
    for (unsigned c = 0; c < cores; ++c) {
        l1_.push_back(std::make_unique<Cache>(
            "l1." + std::to_string(c), cfg.l1Bytes, cfg.l1Assoc));
        l2_.push_back(std::make_unique<Cache>(
            "l2." + std::to_string(c), cfg.l2Bytes, cfg.l2Assoc));
        nextLineL1_.push_back(std::make_unique<NextLinePrefetcher>());
        strideL1_.push_back(
            std::make_unique<StridePrefetcher>(cfg.strideDegreeL1));
        nextLineL2_.push_back(std::make_unique<NextLinePrefetcher>());
        strideL2_.push_back(
            std::make_unique<StridePrefetcher>(cfg.strideDegreeL2));
    }
    l3_ = std::make_unique<Cache>("l3", cfg.l3Bytes, cfg.l3Assoc);
}

void
Hierarchy::touchL2Dirty(unsigned core, Addr addr)
{
    l2_[core]->markDirty(blockAlign(addr));
}

void
Hierarchy::dumpStats(StatDump &dump, const std::string &prefix) const
{
    for (unsigned c = 0; c < cores(); ++c) {
        l1_[c]->dumpStats(dump, prefix + ".l1." + std::to_string(c));
        l2_[c]->dumpStats(dump, prefix + ".l2." + std::to_string(c));
        nextLineL1_[c]->dumpStats(
            dump, prefix + ".pf.nl1." + std::to_string(c));
        strideL1_[c]->dumpStats(
            dump, prefix + ".pf.st1." + std::to_string(c));
    }
    l3_->dumpStats(dump, prefix + ".l3");
    dump.set(prefix + ".demand_accesses", demandAccesses_.value());
    dump.set(prefix + ".walker_accesses", walkerAccesses_.value());
    dump.set(prefix + ".l3_misses", l3Misses_.value());
}

} // namespace tmcc
