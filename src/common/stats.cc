#include "stats.hh"

#include <cmath>
#include <cstdio>
#include <iomanip>

#include "common/log.hh"

namespace tmcc
{

Histogram::Histogram(double lo, double hi, unsigned buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0)
{
    fatalIf(buckets == 0, "Histogram needs at least one bucket");
    fatalIf(!(hi > lo), "Histogram range must satisfy lo < hi");
}

double
Histogram::percentile(double p) const
{
    std::uint64_t total = 0;
    for (const auto c : counts_)
        total += c;
    if (total == 0)
        return lo_;
    const double target = p * static_cast<double>(total);
    double seen = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const double c = static_cast<double>(counts_[i]);
        if (seen + c >= target && c > 0.0) {
            const double frac = (target - seen) / c;
            const double width = (hi_ - lo_) /
                                 static_cast<double>(counts_.size());
            return bucketLow(i) + frac * width;
        }
        seen += c;
    }
    return hi_;
}

double
StatDump::getRequired(const std::string &name) const
{
    auto it = values_.find(name);
    fatalIf(it == values_.end(),
            "required stat \"" + name + "\" is missing from the dump");
    return it->second;
}

void
StatDump::print(std::ostream &os) const
{
    for (const auto &[name, value] : values_) {
        os << std::left << std::setw(48) << name << " "
           << std::setprecision(9) << value << "\n";
    }
}

double
geoMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

void
dumpHistogram(StatDump &dump, const std::string &prefix,
              const Histogram &h)
{
    dump.set(prefix + ".mean", h.mean());
    dump.set(prefix + ".count", h.count());
    dump.set(prefix + ".underflow", h.underflow());
    dump.set(prefix + ".overflow", h.overflow());
    dump.set(prefix + ".lo", h.lo());
    dump.set(prefix + ".hi", h.hi());
    dump.set(prefix + ".num_buckets",
             static_cast<std::uint64_t>(h.buckets().size()));
    for (std::size_t i = 0; i < h.buckets().size(); ++i) {
        if (h.buckets()[i] == 0)
            continue;
        char key[32]; // fits any size_t, so the name is never cut
        std::snprintf(key, sizeof(key), ".bucket%03zu", i);
        dump.set(prefix + key, h.buckets()[i]);
    }
}

} // namespace tmcc
