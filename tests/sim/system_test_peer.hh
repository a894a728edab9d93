/**
 * @file
 * SystemTestPeer: the one friend through which tests reach the phases
 * System keeps private.  Every test file that needs it includes this
 * header, so the class has a single definition in each test binary.
 */

#ifndef TMCC_TESTS_SIM_SYSTEM_TEST_PEER_HH
#define TMCC_TESTS_SIM_SYSTEM_TEST_PEER_HH

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
        return sys.hotPages();
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
