#include "workloads/synthetic.hh"

#include "common/log.hh"

namespace tmcc
{

namespace
{

std::uint64_t
mix(std::uint64_t a)
{
    std::uint64_t x = a + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

SyntheticWorkload::SyntheticWorkload(const SyntheticParams &params,
                                     unsigned core, unsigned cores,
                                     std::uint64_t seed)
    : p_(params), rng_(seed * 7919 + core * 31 + 5)
{
    fatalIf(p_.regions.empty(), "synthetic workload needs regions");
    (void)cores;
    for (const auto &r : p_.regions)
        totalBlocks_ += r.bytes / blockSize;
    seqCursor_ = p_.regions[0].base;
    seqBase_ = p_.regions[0].base;
    seqLimit_ = p_.regions[0].base + p_.regions[0].bytes;
    chaseCursor_ = p_.regions[0].base;
}

const WlRegion &
SyntheticWorkload::regionOf(Addr a) const
{
    for (const auto &r : p_.regions)
        if (a >= r.base && a < r.base + r.bytes)
            return r;
    return p_.regions[0];
}

Addr
SyntheticWorkload::randomTarget()
{
    // Pick a block index across all regions, optionally Zipf-skewed so
    // a hot subset dominates (heap allocators and caches cluster hot
    // objects; Zipf models that).
    std::uint64_t blk;
    if (p_.hotFraction > 0.0) {
        const auto hot_blocks = static_cast<std::uint64_t>(
            p_.hotFraction * static_cast<double>(totalBlocks_));
        if (rng_.chance(p_.coldP) && hot_blocks < totalBlocks_)
            blk = hot_blocks + rng_.below(totalBlocks_ - hot_blocks);
        else
            blk = rng_.below(std::max<std::uint64_t>(hot_blocks, 1));
    } else if (p_.zipfAlpha > 0.0) {
        // Zipf rank maps directly to block position: hot objects
        // cluster (allocators place hot structures together), giving
        // the page-level hotness skew ML1/ML2 separation relies on.
        blk = rng_.zipf(totalBlocks_, p_.zipfAlpha);
    } else {
        blk = rng_.below(totalBlocks_);
    }

    for (const auto &r : p_.regions) {
        const std::uint64_t n = r.bytes / blockSize;
        if (blk < n)
            return r.base + blk * blockSize;
        blk -= n;
    }
    return p_.regions[0].base;
}

MemAccess
SyntheticWorkload::next()
{
    MemAccess a;
    a.thinkCycles =
        static_cast<unsigned>(rng_.geometric(p_.thinkMean));
    a.isWrite = rng_.chance(p_.writeFraction);

    if (chaseLeft_ > 0) {
        // Dependent pointer chase: the next address derives from the
        // current one (serialized misses, mcf-style).  Chases stay
        // within the hot working set when the hot/cold model is on.
        --chaseLeft_;
        std::uint64_t span = p_.regions[0].bytes / blockSize;
        if (p_.hotFraction > 0.0)
            span = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(
                       p_.hotFraction * static_cast<double>(span)));
        chaseCursor_ = p_.regions[0].base +
                       (mix(chaseCursor_) % span) * blockSize;
        a.vaddr = chaseCursor_;
        a.thinkCycles += 2;
        return a;
    }

    if (seqLeft_ > 0) {
        --seqLeft_;
        seqCursor_ += blockSize;
        // Wrap within the region the run started in, not region 0:
        // runs started in other regions would otherwise stream off the
        // region end into unmapped gap addresses.
        if (seqCursor_ >= seqLimit_)
            seqCursor_ = seqBase_;
        a.vaddr = seqCursor_;
        return a;
    }

    if (rng_.chance(p_.sequentialFraction)) {
        // Sequential runs start where the (possibly skewed) reference
        // stream points: scans revisit hot structures, they do not
        // sweep the whole footprint uniformly.
        seqLeft_ = p_.runBlocks;
        seqCursor_ = blockAlign(randomTarget());
        const WlRegion &r = regionOf(seqCursor_);
        seqBase_ = r.base;
        seqLimit_ = r.base + r.bytes;
        a.vaddr = seqCursor_;
        return a;
    }

    a.vaddr = randomTarget();
    if (p_.chaseDepth > 0) {
        chaseLeft_ = p_.chaseDepth;
        chaseCursor_ = a.vaddr;
    }
    return a;
}

} // namespace tmcc
