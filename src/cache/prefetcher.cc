#include "cache/prefetcher.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"

namespace tmcc
{

NextLinePrefetcher::NextLinePrefetcher(unsigned check_window,
                                       double min_accuracy)
    : checkWindow_(check_window), minAccuracy_(min_accuracy)
{}

StridePrefetcher::StridePrefetcher(unsigned degree, unsigned streams)
    : degree_(degree), streams_(streams),
      wstride_(simd::padWays<std::uint32_t>(streams))
{
    fatalIf(streams == 0 || streams > simd::maxWays,
            "stride prefetcher stream count must be in [1, " +
                std::to_string(simd::maxWays) + "]");
    pages_.assign(wstride_, simd::padKey);
    std::fill_n(pages_.begin(), streams_, simd::invalidKey);
    lastAddr_.assign(streams_, invalidAddr);
    stride_.assign(streams_, 0);
    confidence_.assign(streams_, 0);
    simd::initRankRows(ranks_, 1, streams_, simd::padRanks(streams_));
}

void
StridePrefetcher::pageOutOfRange(Addr addr) const
{
    std::ostringstream msg;
    msg << "stride prefetcher: address 0x" << std::hex << addr
        << " is past the 32-bit page-number key range (addresses must"
           " be below 0xffffffffe000, just under 16 TiB)";
    panic(msg.str());
}

} // namespace tmcc
