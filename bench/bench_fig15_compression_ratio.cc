/**
 * @file
 * Figure 15: compression ratio of each workload's memory image under
 * (a) block-level compression (best of BDI/BPC/CPack/zero, 64B blocks),
 * (b) our memory-specialized ASIC Deflate (with and without dynamic
 *     Huffman skip), and
 * (c) software Deflate (the RFC 1951 reference codec, "gzip").
 *
 * Paper: geomean block 1.51x; our Deflate 3.4x (3.6x with skip), within
 * ~12% (7% with skip) of gzip.
 */

#include "bench/bench_util.hh"
#include "workloads/profile_library.hh"

using namespace tmcc;
using namespace tmcc::bench;

int
main()
{
    BenchReport report("fig15_compression_ratio");
    header("Figure 15: compression ratio of workload memory images",
           "geomean: block ~1.51x, our Deflate ~3.4x, gzip ~3.8x");
    cols({"block", "deflate", "no_skip", "gzip"});

    ProfileLibrary lib(8);
    std::vector<double> blocks, deflates, no_skips, gzips;

    std::vector<std::string> all = largeWorkloadNames();
    for (const auto &n : smallWorkloadNames())
        all.push_back(n);

    // Every workload's mix, measured in one codec pass.
    std::vector<ContentMix> mixes;
    for (const auto &name : all) {
        auto wl = makeWorkload(name, 0, 4, 0.05, 1);
        // Weight each region's measured ratio by its size.
        ContentMix mix;
        for (const auto &r : wl->regions())
            mix.parts.push_back(
                {r.content, static_cast<double>(r.bytes)});
        mixes.push_back(std::move(mix));
    }
    const std::vector<unsigned> ids = lib.registerMixes(mixes);

    for (std::size_t w = 0; w < all.size(); ++w) {
        const std::string &name = all[w];
        const auto s = lib.summarize(ids[w]);
        blocks.push_back(s.blockRatio);
        deflates.push_back(s.deflateRatio);
        no_skips.push_back(s.deflateNoSkipRatio);
        gzips.push_back(s.rfcRatio);
        row(name, {s.blockRatio, s.deflateRatio, s.deflateNoSkipRatio,
                   s.rfcRatio}, 2);
    }

    row("GEOMEAN",
        {geoMean(blocks), geoMean(deflates), geoMean(no_skips),
         geoMean(gzips)}, 2);
    report.metric("geomean.block", geoMean(blocks));
    report.metric("geomean.deflate", geoMean(deflates));
    report.metric("geomean.no_skip", geoMean(no_skips));
    report.metric("geomean.gzip", geoMean(gzips));
    std::printf("paper GEOMEAN:      1.51       3.60       3.40       "
                "3.86 (approx)\n");
    std::printf("our Deflate vs gzip gap: %.1f%% (paper: ~7%% with "
                "skip)\n",
                100.0 * (1.0 - geoMean(deflates) / geoMean(gzips)));
    return 0;
}
