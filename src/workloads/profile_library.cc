#include "workloads/profile_library.hh"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/log.hh"
#include "compress/block_compressor.hh"
#include "compress/mem_deflate.hh"
#include "compress/rfc_deflate.hh"

namespace tmcc
{

namespace
{

/**
 * Process-wide memoization of per-part measurements.
 *
 * A part's measurement depends only on (spec, samples, seed): each part
 * draws from its own RNG stream seeded by a hash of its ContentSpec, so
 * the result is independent of registration order and of what else the
 * owning library has measured.  Experiment grids construct hundreds of
 * Systems over the same handful of workload mixes; the cache collapses
 * all repeat measurements into lookups.
 */

struct PartMeasurement
{
    PageProfile profile;
    std::uint32_t noSkipBytes = 0;
};

struct PartKey
{
    ContentSpec spec;
    unsigned samples = 0;
    std::uint64_t seed = 0;

    bool
    operator==(const PartKey &o) const
    {
        return spec == o.spec && samples == o.samples && seed == o.seed;
    }
};

constexpr std::uint64_t
mixBits(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdULL;
    return h ^ (h >> 33);
}

std::uint64_t
doubleBits(double d)
{
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

std::uint64_t
specHash(const ContentSpec &spec)
{
    std::uint64_t h = 0x243f6a8885a308d3ULL;
    h = mixBits(h, static_cast<std::uint64_t>(spec.family));
    h = mixBits(h, doubleBits(spec.structure));
    h = mixBits(h, doubleBits(spec.repetition));
    return h;
}

struct PartKeyHash
{
    std::size_t
    operator()(const PartKey &k) const
    {
        std::uint64_t h = specHash(k.spec);
        h = mixBits(h, k.samples);
        h = mixBits(h, k.seed);
        return static_cast<std::size_t>(h);
    }
};

std::mutex cacheMutex;
std::atomic<std::uint64_t> cacheHits{0};
std::atomic<std::uint64_t> cacheMisses{0};
std::atomic<std::uint64_t> cachePages{0};

std::unordered_map<PartKey, PartMeasurement, PartKeyHash> &
partCache()
{
    static std::unordered_map<PartKey, PartMeasurement, PartKeyHash> c;
    return c;
}

/** Run the real codecs over `key.samples` sample pages of the part. */
PartMeasurement
measurePart(const PartKey &key)
{
    BlockCompressor block;
    MemDeflate deflate;
    MemDeflateConfig no_skip_cfg;
    no_skip_cfg.dynamicHuffmanSkip = false;
    MemDeflate deflate_no_skip(no_skip_cfg);
    RfcDeflate rfc;

    // The part's own stream: a pure function of (spec, seed), so the
    // measurement cannot depend on registration order.
    Rng rng(key.seed ^ specHash(key.spec));

    std::uint64_t block_total = 0, deflate_total = 0;
    std::uint64_t no_skip_total = 0, rfc_total = 0;
    std::uint64_t tokens_total = 0;
    unsigned huff_used = 0;
    for (unsigned s = 0; s < key.samples; ++s) {
        const auto page = generateContent(key.spec, rng);
        block_total += block.compressPage(page.data());
        const CompressedPage dp = deflate.compress(page.data(), page.size());
        deflate_total += dp.sizeBytes();
        tokens_total += dp.lzTokens;
        huff_used += dp.huffmanUsed;
        no_skip_total +=
            deflate_no_skip.compress(page.data(), page.size()).sizeBytes();
        rfc_total += rfc.compress(page.data(), page.size()).sizeBytes();
    }
    cachePages.fetch_add(key.samples, std::memory_order_relaxed);

    PartMeasurement m;
    m.profile.blockBytes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(pageSize, block_total / key.samples));
    m.profile.deflateBytes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(pageSize, deflate_total / key.samples));
    m.profile.rfcBytes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(pageSize, rfc_total / key.samples));
    m.profile.lzTokens =
        static_cast<std::uint32_t>(tokens_total / key.samples);
    m.profile.huffmanUsed = huff_used * 2 >= key.samples;
    m.noSkipBytes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(pageSize, no_skip_total / key.samples));
    return m;
}

} // namespace

ProfileLibrary::ProfileLibrary(unsigned samples_per_part,
                               std::uint64_t seed)
    : samplesPerPart_(samples_per_part), seed_(seed)
{
    // Reasonable default for pages never assigned (e.g., page-table
    // pages): moderately compressible pointer-like data.
    defaultProfile_.blockBytes = pageSize * 6 / 10;
    defaultProfile_.deflateBytes = pageSize * 3 / 10;
    defaultProfile_.rfcBytes = pageSize * 28 / 100;
    defaultProfile_.lzTokens = 2000;
    defaultProfile_.huffmanUsed = true;
}

unsigned
ProfileLibrary::registerMix(const ContentMix &mix)
{
    fatalIf(mix.parts.empty(), "content mix needs at least one part");
    fatalIf(samplesPerPart_ == 0, "samples per part must be positive");

    std::vector<PartKey> keys;
    keys.reserve(mix.parts.size());
    for (const auto &part : mix.parts)
        keys.push_back({part.spec, samplesPerPart_, seed_});

    // Find which parts are cold, deduplicating within the mix.
    std::vector<PartKey> missing;
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        const auto &c = partCache();
        for (const auto &key : keys) {
            bool queued = false;
            for (const auto &m : missing)
                queued = queued || m == key;
            if (c.count(key) || queued) {
                // Repeats within one mix ride the first part's
                // measurement, so they count as hits too: misses ==
                // unique cold measurements.
                cacheHits.fetch_add(1, std::memory_order_relaxed);
            } else {
                cacheMisses.fetch_add(1, std::memory_order_relaxed);
                missing.push_back(key);
            }
        }
    }

    // Measure cold parts, in parallel when there are several (each
    // worker builds its own codecs; parts are independent).
    if (!missing.empty()) {
        std::vector<PartMeasurement> results(missing.size());
        const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
            missing.size(),
            std::max(1u, std::thread::hardware_concurrency())));
        if (workers <= 1) {
            for (std::size_t i = 0; i < missing.size(); ++i)
                results[i] = measurePart(missing[i]);
        } else {
            std::atomic<std::size_t> next{0};
            auto work = [&] {
                for (std::size_t i = next.fetch_add(1);
                     i < missing.size(); i = next.fetch_add(1))
                    results[i] = measurePart(missing[i]);
            };
            std::vector<std::thread> pool;
            pool.reserve(workers - 1);
            for (unsigned w = 0; w + 1 < workers; ++w)
                pool.emplace_back(work);
            work();
            for (auto &t : pool)
                t.join();
        }
        std::lock_guard<std::mutex> lock(cacheMutex);
        for (std::size_t i = 0; i < missing.size(); ++i)
            partCache().emplace(missing[i], results[i]);
    }

    MeasuredMix measured;
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        const auto &c = partCache();
        for (std::size_t i = 0; i < mix.parts.size(); ++i) {
            const PartMeasurement &m = c.at(keys[i]);
            measured.profiles.push_back(m.profile);
            measured.weights.push_back(mix.parts[i].weight);
            measured.deflateNoSkipBytes.push_back(m.noSkipBytes);
        }
    }

    mixes_.push_back(std::move(measured));
    return static_cast<unsigned>(mixes_.size() - 1);
}

ProfileLibrary::CacheStats
ProfileLibrary::cacheStats()
{
    CacheStats s;
    s.hits = cacheHits.load(std::memory_order_relaxed);
    s.misses = cacheMisses.load(std::memory_order_relaxed);
    s.pagesCompressed = cachePages.load(std::memory_order_relaxed);
    return s;
}

void
ProfileLibrary::clearCache()
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    partCache().clear();
    cacheHits.store(0, std::memory_order_relaxed);
    cacheMisses.store(0, std::memory_order_relaxed);
    cachePages.store(0, std::memory_order_relaxed);
}

void
ProfileLibrary::assignPage(Ppn ppn, unsigned mix_id)
{
    panicIf(mix_id >= mixes_.size(), "unknown mix");
    const MeasuredMix &m = mixes_[mix_id];

    // Deterministic weighted part pick from the PPN.
    double total = 0;
    for (double w : m.weights)
        total += w;
    std::uint64_t h = ppn * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    double roll = static_cast<double>(h % 1000003) / 1000003.0 * total;
    unsigned part = 0;
    for (; part + 1 < m.weights.size(); ++part) {
        if (roll < m.weights[part])
            break;
        roll -= m.weights[part];
    }
    if (ppn >= pageAssign_.size())
        pageAssign_.resize(ppn + 1, {unassigned, 0});
    pageAssign_[ppn] = {mix_id, part};
}

const PageProfile &
ProfileLibrary::profile(Ppn ppn) const
{
    if (ppn >= pageAssign_.size() || pageAssign_[ppn].first == unassigned)
        return defaultProfile_;
    const auto [mix, part] = pageAssign_[ppn];
    return mixes_[mix].profiles[part];
}

ProfileLibrary::MixSummary
ProfileLibrary::summarize(unsigned mix_id) const
{
    panicIf(mix_id >= mixes_.size(), "unknown mix");
    const MeasuredMix &m = mixes_[mix_id];
    double total_w = 0, block = 0, deflate = 0, no_skip = 0, rfc = 0;
    for (std::size_t i = 0; i < m.profiles.size(); ++i) {
        const double w = m.weights[i];
        total_w += w;
        block += w * m.profiles[i].blockBytes;
        deflate += w * m.profiles[i].deflateBytes;
        no_skip += w * m.deflateNoSkipBytes[i];
        rfc += w * m.profiles[i].rfcBytes;
    }
    MixSummary s;
    s.blockRatio = pageSize * total_w / block;
    s.deflateRatio = pageSize * total_w / deflate;
    s.deflateNoSkipRatio = pageSize * total_w / no_skip;
    s.rfcRatio = pageSize * total_w / rfc;
    return s;
}

const std::vector<PageProfile> &
ProfileLibrary::partProfiles(unsigned mix_id) const
{
    panicIf(mix_id >= mixes_.size(), "unknown mix");
    return mixes_[mix_id].profiles;
}

} // namespace tmcc
