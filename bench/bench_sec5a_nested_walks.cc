/**
 * @file
 * §V-A3 / Fig. 12b: 2D (nested) page walks for virtual machines.
 *
 * The paper argues qualitatively that because each 2D walk is a
 * sequence of regular host walks over host PTBs, TMCC's CTE embedding
 * accelerates virtualized guests the same way it accelerates native
 * runs.  This harness quantifies that on this simulator: PTB fetches
 * per walk explode under nesting, and TMCC recovers part of the
 * resulting translation cost vs Compresso and the barebone design.
 */

#include "bench/bench_util.hh"

using namespace tmcc;
using namespace tmcc::bench;

int
main()
{
    BenchReport report("sec5a_nested_walks");
    header("Section V-A3 extension: 2D (nested) page walks",
           "qualitative in the paper: embedding helps each host walk");
    std::printf("%-14s %12s %12s %12s %12s\n", "workload",
                "ptb/walk", "compresso", "barebone", "tmcc");

    const std::vector<std::string> names = {"mcf", "canneal",
                                            "shortestPath", "omnetpp"};
    std::vector<SimConfig> configs;
    for (const auto &name : names)
        for (Arch arch : {Arch::Compresso, Arch::Barebone, Arch::Tmcc}) {
            SimConfig cfg = baseConfig(name, arch);
            cfg.nestedPaging = true;
            cfg.measureAccesses /= 2;
            cfg.warmAccesses /= 2;
            configs.push_back(cfg);
        }
    const std::vector<SimResult> results = runAll(configs);

    std::vector<double> tm_vs_comp;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const SimResult &rc = results[3 * i];
        const SimResult &rb = results[3 * i + 1];
        const SimResult &rt = results[3 * i + 2];
        const double fetches_per_walk =
            rt.stats.getRequired("hier.walker_accesses") /
            std::max(1.0, rt.stats.getRequired("core0.walker.walks") * 4.0);
        const double comp = rc.accessesPerNs() * 1000.0;
        const double bare = rb.accessesPerNs() * 1000.0;
        const double tmcc = rt.accessesPerNs() * 1000.0;
        tm_vs_comp.push_back(comp > 0 ? tmcc / comp : 0.0);
        std::printf("%-14s %12.1f %12.1f %12.1f %12.1f\n",
                    names[i].c_str(), fetches_per_walk * 4.0, comp, bare,
                    tmcc);
        report.metric(names[i] + ".tmcc_vs_compresso", tm_vs_comp.back());
        report.metric(names[i] + ".ptb_per_walk", fetches_per_walk * 4.0);
    }
    std::printf("TMCC vs Compresso under nesting (avg ratio): %.3f\n",
                mean(tm_vs_comp));
    report.metric("avg.tmcc_vs_compresso", mean(tm_vs_comp));
    return 0;
}
