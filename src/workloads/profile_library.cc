#include "workloads/profile_library.hh"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/log.hh"
#include "common/parallel.hh"
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

/** One worker's codecs (every compress() call is const). */
struct Codecs
{
    BlockCompressor block;
    MemDeflate deflate;
    MemDeflate deflateNoSkip{[] {
        MemDeflateConfig cfg;
        cfg.dynamicHuffmanSkip = false;
        return cfg;
    }()};
    RfcDeflate rfc;
};

/** The codec outputs of one sample page. */
struct SampleSizes
{
    std::uint64_t block = 0, deflate = 0, noSkip = 0, rfc = 0;
    std::uint64_t tokens = 0;
    unsigned huffmanUsed = 0;
};

/** Compressed sizes averaged over `samples` pages, capped at a page. */
std::uint32_t
meanBytes(std::uint64_t total, unsigned samples)
{
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(pageSize, total / samples));
}

/**
 * Run the real codecs over `samples` sample pages of every key, one
 * (key, sample) page per task across the workers, and reduce the
 * integer sums per key in sample order.
 */
std::vector<PartMeasurement>
measureParts(const std::vector<PartKey> &keys, unsigned samples)
{
    // The sample pages first, serially: each part draws from its own
    // stream, a pure function of (spec, seed), so no measurement can
    // depend on registration order or on which worker compresses it.
    std::vector<std::vector<std::uint8_t>> pages;
    pages.reserve(keys.size() * samples);
    for (const PartKey &key : keys) {
        Rng rng(ProfileLibrary::partSeed(key.spec, key.seed));
        for (unsigned s = 0; s < samples; ++s)
            pages.push_back(generateContent(key.spec, rng));
    }

    std::vector<SampleSizes> sizes(pages.size());
    std::vector<std::unique_ptr<Codecs>> codecs(
        parallelWorkers(pages.size()));
    parallelFor(pages.size(), [&](std::size_t i, unsigned worker) {
        if (!codecs[worker])
            codecs[worker] = std::make_unique<Codecs>();
        const Codecs &c = *codecs[worker];
        const std::vector<std::uint8_t> &page = pages[i];
        SampleSizes &out = sizes[i];
        out.block = c.block.compressPage(page.data());
        const CompressedPage dp = c.deflate.compress(page.data(),
                                                     page.size());
        out.deflate = dp.sizeBytes();
        out.tokens = dp.lzTokens;
        out.huffmanUsed = dp.huffmanUsed;
        out.noSkip =
            c.deflateNoSkip.compress(page.data(), page.size()).sizeBytes();
        out.rfc = c.rfc.compress(page.data(), page.size()).sizeBytes();
    });
    cachePages.fetch_add(pages.size(), std::memory_order_relaxed);

    std::vector<PartMeasurement> results(keys.size());
    for (std::size_t k = 0; k < keys.size(); ++k) {
        SampleSizes sum;
        for (unsigned s = 0; s < samples; ++s) {
            const SampleSizes &x = sizes[k * samples + s];
            sum.block += x.block;
            sum.deflate += x.deflate;
            sum.noSkip += x.noSkip;
            sum.rfc += x.rfc;
            sum.tokens += x.tokens;
            sum.huffmanUsed += x.huffmanUsed;
        }
        PartMeasurement &m = results[k];
        m.profile.blockBytes = meanBytes(sum.block, samples);
        m.profile.deflateBytes = meanBytes(sum.deflate, samples);
        m.profile.rfcBytes = meanBytes(sum.rfc, samples);
        m.profile.lzTokens = static_cast<std::uint32_t>(sum.tokens / samples);
        m.profile.huffmanUsed = sum.huffmanUsed * 2 >= samples;
        m.noSkipBytes = meanBytes(sum.noSkip, samples);
    }
    return results;
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
    return registerMixes({mix}).front();
}

std::vector<unsigned>
ProfileLibrary::registerMixes(const std::vector<ContentMix> &mixes)
{
    fatalIf(samplesPerPart_ == 0, "samples per part must be positive");
    for (const ContentMix &mix : mixes)
        fatalIf(mix.parts.empty(), "content mix needs at least one part");

    // Find which parts are cold, deduplicating across the whole pass.
    // Repeats ride the first part's measurement, so they count as hits
    // too: misses == unique cold measurements.
    std::vector<PartKey> missing;
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        const auto &c = partCache();
        for (const ContentMix &mix : mixes) {
            for (const auto &part : mix.parts) {
                const PartKey key{part.spec, samplesPerPart_, seed_};
                if (c.count(key) ||
                    std::find(missing.begin(), missing.end(), key) !=
                        missing.end()) {
                    cacheHits.fetch_add(1, std::memory_order_relaxed);
                } else {
                    cacheMisses.fetch_add(1, std::memory_order_relaxed);
                    missing.push_back(key);
                }
            }
        }
    }

    if (!missing.empty()) {
        const std::vector<PartMeasurement> results =
            measureParts(missing, samplesPerPart_);
        std::lock_guard<std::mutex> lock(cacheMutex);
        for (std::size_t i = 0; i < missing.size(); ++i)
            partCache().emplace(missing[i], results[i]);
    }

    std::vector<unsigned> ids;
    ids.reserve(mixes.size());
    std::lock_guard<std::mutex> lock(cacheMutex);
    const auto &c = partCache();
    for (const ContentMix &mix : mixes) {
        MeasuredMix measured;
        for (const auto &part : mix.parts) {
            const PartMeasurement &m =
                c.at({part.spec, samplesPerPart_, seed_});
            measured.profiles.push_back(m.profile);
            measured.weights.push_back(part.weight);
            measured.deflateNoSkipBytes.push_back(m.noSkipBytes);
        }
        mixes_.push_back(std::move(measured));
        ids.push_back(static_cast<unsigned>(mixes_.size() - 1));
    }
    return ids;
}

std::uint64_t
ProfileLibrary::partSeed(const ContentSpec &spec, std::uint64_t seed)
{
    return seed ^ specHash(spec);
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
