/**
 * @file
 * SystemTestPeer: the one friend through which tests reach the phases
 * System keeps private.  Every test file that needs it includes this
 * header, so the class has a single definition in each test binary.
 */

#ifndef TMCC_TESTS_SIM_SYSTEM_TEST_PEER_HH
#define TMCC_TESTS_SIM_SYSTEM_TEST_PEER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/system.hh"

namespace tmcc
{

struct SystemTestPeer
{
    static void
    fastForward(System &sys, std::uint64_t per_core)
    {
        sys.fastForward(per_core);
    }

    static void
    runWarm(System &sys, std::uint64_t per_core)
    {
        sys.runWarm(per_core);
    }

    /** The touch-count run alone: the hot pages in placement order. */
    static std::vector<Vpn>
    hotPages(System &sys)
    {
        std::vector<Vpn> vpns;
        for (std::uint64_t i : sys.hotPages())
            vpns.push_back(vpnOf(sys, i));
        return vpns;
    }

    /** The VPN of region page index `i`. */
    static Vpn
    vpnOf(const System &sys, std::uint64_t i)
    {
        const std::vector<std::uint64_t> &start = sys.regionStart_;
        const auto k = static_cast<std::size_t>(
            std::upper_bound(start.begin(), start.end(), i) -
            start.begin() - 1);
        return pageNumber(sys.regions_[k]->base) + (i - start[k]);
    }

    /** The frame table, indexed by region page index. */
    static const std::vector<Ppn> &
    frames(const System &sys)
    {
        return sys.frames_;
    }

    /** Nested mode's guest-physical to host table. */
    static const PageTable &
    hostTable(const System &sys)
    {
        return *sys.hostTable_;
    }

    static StatDump
    stats(const System &sys)
    {
        StatDump dump;
        sys.dumpAllStats(dump);
        return dump;
    }
};

} // namespace tmcc

#endif // TMCC_TESTS_SIM_SYSTEM_TEST_PEER_HH
