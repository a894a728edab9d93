/**
 * @file
 * Lightweight statistics: scalar counters, averages, distributions and a
 * named registry so each simulated component can export its counters and a
 * bench harness can print a coherent table, loosely modelled on gem5's
 * stats package.
 */

#ifndef TMCC_COMMON_STATS_HH
#define TMCC_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace tmcc
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Running mean of a sampled quantity (e.g., L3 miss latency in ns). */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/** Fixed-bucket histogram for latency / size distributions. */
class Histogram
{
  public:
    Histogram(double lo, double hi, unsigned buckets);

    void
    sample(double v)
    {
        avg_.sample(v);
        if (v < lo_) {
            ++underflow_;
            return;
        }
        if (v >= hi_) {
            ++overflow_;
            return;
        }
        // (v - lo_) / (hi_ - lo_) can round to exactly 1.0 when v is
        // just below hi_ (e.g. the subtraction rounding up to the full
        // range), so the scaled index must be clamped to the top
        // bucket to avoid an out-of-bounds write.
        auto idx = static_cast<std::size_t>(
            (v - lo_) / (hi_ - lo_) * counts_.size());
        if (idx >= counts_.size())
            idx = counts_.size() - 1;
        ++counts_[idx];
    }

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    double mean() const { return avg_.mean(); }
    /** Exact running sum of all samples (the golden digests hash the
     * sum, not the derived mean). */
    double sampleSum() const { return avg_.sum(); }
    std::uint64_t count() const { return avg_.count(); }
    const std::vector<std::uint64_t> &buckets() const { return counts_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    double bucketLow(std::size_t i) const
    {
        return lo_ + (hi_ - lo_) * static_cast<double>(i) /
               static_cast<double>(counts_.size());
    }

    /**
     * Approximate p-quantile (p in [0, 1]) of the in-range samples,
     * linearly interpolated within the containing bucket; lo()/hi()
     * when the histogram is empty or p falls off either end.
     */
    double percentile(double p) const;

    void
    reset()
    {
        avg_.reset();
        underflow_ = overflow_ = 0;
        for (auto &c : counts_)
            c = 0;
    }

  private:
    double lo_, hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0, overflow_ = 0;
    Average avg_;
};

/**
 * A flat name -> value map that components dump their counters into.
 * Names are dotted paths ("l3.misses", "mc.cte_cache.hits").
 */
class StatDump
{
  public:
    void set(const std::string &name, double v) { values_[name] = v; }
    void
    set(const std::string &name, std::uint64_t v)
    {
        values_[name] = static_cast<double>(v);
    }

    double
    get(const std::string &name) const
    {
        auto it = values_.find(name);
        return it == values_.end() ? 0.0 : it->second;
    }

    /**
     * Like get(), but a missing stat is fatal instead of a silent 0.0.
     * Headline metrics must use this: a typo'd name then fails loudly
     * rather than producing a plausible-looking zero in a report.
     */
    double getRequired(const std::string &name) const;

    bool has(const std::string &name) const
    {
        return values_.count(name) != 0;
    }

    const std::map<std::string, double> &all() const { return values_; }

    /** Print every stat, one per line, sorted by name. */
    void print(std::ostream &os) const;

  private:
    std::map<std::string, double> values_;
};

/** Interface for components that export statistics. */
class Stated
{
  public:
    virtual ~Stated() = default;

    /** Dump this component's counters under the given name prefix. */
    virtual void dumpStats(StatDump &dump,
                           const std::string &prefix) const = 0;
};

/** Geometric mean of a vector of positive values; 0 if empty. */
double geoMean(const std::vector<double> &values);

/**
 * Export a histogram into a StatDump under `prefix`: `.mean`,
 * `.count`, `.underflow`, `.overflow`, `.lo`, `.hi`, `.num_buckets`,
 * and one `.bucketNNN` entry per non-empty bucket (NNN zero-padded so
 * the dump sorts in bucket order; edges follow from lo/hi/num_buckets).
 */
void dumpHistogram(StatDump &dump, const std::string &prefix,
                   const Histogram &h);

} // namespace tmcc

#endif // TMCC_COMMON_STATS_HH
