/**
 * @file
 * ProfileLibrary: measures PageProfile records by running the real
 * compressors over sampled pages of each content mix, then hands them
 * out per physical page.
 */

#ifndef TMCC_WORKLOADS_PROFILE_LIBRARY_HH
#define TMCC_WORKLOADS_PROFILE_LIBRARY_HH

#include <utility>
#include <vector>

#include "mc/page_profile.hh"
#include "workloads/content.hh"

namespace tmcc
{

/** A weighted mix of content families (one workload's memory image). */
struct ContentMix
{
    struct Part
    {
        ContentSpec spec;
        double weight = 1.0;
    };
    std::vector<Part> parts;
};

/**
 * Measures and serves per-page compressibility profiles.
 *
 * registerMixes() samples `samplesPerPart` pages per family with the
 * real BlockCompressor / MemDeflate / RfcDeflate codecs and averages
 * the results into one PageProfile per part; pages are then assigned
 * to parts by weight (deterministic per PPN).
 *
 * Measurements are memoized process-wide, keyed by (content spec,
 * samples, seed): a part's profile is a pure function of that key (each
 * part gets its own RNG stream derived from the key), so repeated
 * System constructions across an experiment grid stop re-compressing
 * identical sample pages.  The cache is thread-safe.  All cold parts
 * of one registerMixes() call are measured in one pass: their sample
 * pages are generated serially, then compressed page by page across
 * parallelFor workers, each with its own codecs.
 */
class ProfileLibrary : public PageInfoProvider
{
  public:
    explicit ProfileLibrary(unsigned samples_per_part = 12,
                            std::uint64_t seed = 0xfeed);

    /**
     * Measure several mixes in one codec pass; returns their ids, in
     * order.
     */
    std::vector<unsigned> registerMixes(const std::vector<ContentMix> &mixes);

    /** Measure one mix (a one-mix registerMixes()); returns its id. */
    unsigned registerMix(const ContentMix &mix);

    /** Counters for the process-wide measurement cache (stats hook for
     * tests and benches).  A part of a registered mix is a miss when
     * its (spec, samples, seed) is neither cached nor already queued
     * in the same pass, else a hit; `pagesCompressed` counts every
     * sample page run through the codecs (samples per miss). */
    struct CacheStats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t pagesCompressed = 0;
    };
    static CacheStats cacheStats();

    /** Drop all memoized measurements (tests). */
    static void clearCache();

    /**
     * Seed of a part's sample-page stream: a pure function of its spec
     * and the library seed, so no measurement depends on registration
     * order (and tests can regenerate the pages).
     */
    static std::uint64_t partSeed(const ContentSpec &spec,
                                  std::uint64_t seed);

    /** Assign a physical page to a mix (profile picked by PPN hash). */
    void assignPage(Ppn ppn, unsigned mix_id);

    const PageProfile &profile(Ppn ppn) const override;

    /** Aggregate ratios of a mix (weight-averaged; for Fig. 15). */
    struct MixSummary
    {
        double blockRatio = 1.0;
        double deflateRatio = 1.0;
        double deflateNoSkipRatio = 1.0;
        double rfcRatio = 1.0;
    };
    MixSummary summarize(unsigned mix_id) const;

    /** The measured per-part profiles of a mix. */
    const std::vector<PageProfile> &partProfiles(unsigned mix_id) const;

  private:
    struct MeasuredMix
    {
        std::vector<PageProfile> profiles; //!< one per part
        std::vector<double> weights;
        std::vector<std::uint32_t> deflateNoSkipBytes;
    };

    unsigned samplesPerPart_;
    std::uint64_t seed_;
    std::vector<MeasuredMix> mixes_;
    /** (mix, part) per frame, indexed by Ppn (frames are allocated
     * densely from 1); mix is `unassigned` for a frame never assigned. */
    static constexpr unsigned unassigned = ~0u;
    std::vector<std::pair<unsigned, unsigned>> pageAssign_;
    PageProfile defaultProfile_;
};

} // namespace tmcc

#endif // TMCC_WORKLOADS_PROFILE_LIBRARY_HH
