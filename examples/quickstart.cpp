/**
 * @file
 * Quickstart: simulate one workload under three memory-compression
 * architectures and print the headline comparison (performance,
 * L3-miss latency, compression ratio) — a miniature of Figs. 17/18.
 *
 * Usage: quickstart [workload] [scale]
 *   workload: any of the paper's names (default pageRank)
 *   scale:    footprint scale factor (default 0.04 for a fast demo)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/system.hh"

using namespace tmcc;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "pageRank";
    const double scale = argc > 2 ? std::atof(argv[2]) : 0.04;

    std::printf("TMCC quickstart: workload=%s scale=%.3f\n",
                workload.c_str(), scale);
    std::printf("%-24s %12s %14s %12s\n", "architecture", "perf(acc/us)",
                "L3miss lat(ns)", "comp ratio");

    double base_perf = 0.0;
    for (Arch arch : {Arch::NoCompression, Arch::Compresso, Arch::Tmcc}) {
        SimConfig cfg;
        cfg.workload = workload;
        cfg.scale = scale;
        cfg.arch = arch;
        cfg.placementAccesses = 100'000;
        cfg.warmAccesses = 60'000;
        cfg.measureAccesses = 120'000;

        System system(cfg);
        const SimResult r = system.measure();

        const double perf = r.accessesPerNs() * 1000.0;
        if (arch == Arch::NoCompression)
            base_perf = perf;
        std::printf("%-24s %12.1f %14.1f %12.2f%s\n", archName(arch),
                    perf, r.avgL3MissLatencyNs, r.compressionRatio(),
                    arch == Arch::NoCompression
                        ? ""
                        : (std::string("   (perf vs nocomp: ") +
                           std::to_string(perf / base_perf) + ")")
                              .c_str());
    }
    return 0;
}
