/**
 * @file
 * Capacity planner: the scenario the paper's introduction motivates —
 * a memory-constrained deployment deciding how much effective capacity
 * hardware compression can buy at what performance cost.
 *
 * For one workload, sweeps the TMCC DRAM budget from generous to
 * aggressive and prints the capacity/performance frontier next to the
 * Compresso operating point, i.e. a per-workload slice of Table IV.
 *
 * Usage: capacity_planner [workload] (default shortestPath)
 */

#include <cstdio>
#include <string>

#include "sim/system.hh"

using namespace tmcc;

int
main(int argc, char **argv)
{
    const std::string workload =
        argc > 1 ? argv[1] : "shortestPath";

    SimConfig base = SimConfig::scaledDefault();
    base.workload = workload;
    if (workload == "mcf" || workload == "omnetpp" ||
        workload == "canneal")
        base.scale = 0.8;
    base.measureAccesses /= 2;
    base.warmAccesses /= 2;

    std::printf("capacity/performance frontier for %s\n\n",
                workload.c_str());

    // Reference points.
    SimConfig none = base;
    none.arch = Arch::NoCompression;
    const SimResult rn = System(none).measure();

    SimConfig comp = base;
    comp.arch = Arch::Compresso;
    const SimResult rc = System(comp).measure();

    std::printf("%-26s %10s %12s %10s\n", "configuration", "ratio",
                "perf(acc/us)", "vs nocomp");
    std::printf("%-26s %10.2f %12.1f %10.2f\n", "no compression", 1.0,
                rn.accessesPerNs() * 1000, 1.0);
    std::printf("%-26s %10.2f %12.1f %10.2f\n", "compresso",
                rc.compressionRatio(), rc.accessesPerNs() * 1000,
                rc.accessesPerNs() / rn.accessesPerNs());

    const double iso = static_cast<double>(rc.dramUsedBytes) /
                       static_cast<double>(rc.footprintBytes);
    for (double frac : {iso, 0.8 * iso, 0.6 * iso, 0.45 * iso,
                        0.35 * iso}) {
        SimConfig cfg = base;
        cfg.arch = Arch::Tmcc;
        cfg.dramBudgetFraction = frac;
        const SimResult r = System(cfg).measure();
        char label[64];
        std::snprintf(label, sizeof(label), "tmcc @ %.0f%% of footprint",
                      100.0 * frac);
        std::printf("%-26s %10.2f %12.1f %10.2f%s\n", label,
                    r.compressionRatio(), r.accessesPerNs() * 1000,
                    r.accessesPerNs() / rn.accessesPerNs(),
                    r.accessesPerNs() >= 0.99 * rc.accessesPerNs()
                        ? "   <= still >= Compresso perf"
                        : "");
    }

    std::printf("\nreading: pick the lowest budget whose performance "
                "still beats Compresso's\n(the paper's Table IV finds "
                "2.2x Compresso's effective capacity this way).\n");
    return 0;
}
