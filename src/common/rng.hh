/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis and
 * sampled policies (e.g., the 1% Recency List update sampling of §IV-B).
 *
 * All randomness in the repository flows through Rng so that every
 * experiment is exactly reproducible from its seed.
 */

#ifndef TMCC_COMMON_RNG_HH
#define TMCC_COMMON_RNG_HH

#include <cassert>
#include <cmath>
#include <cstdint>

namespace tmcc
{

/**
 * SplitMix64-seeded xoshiro256** generator.  Small, fast, and good enough
 * statistically for workload synthesis; not for cryptography.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        std::uint64_t x = seed;
        for (auto &word : s_) {
            // SplitMix64 step.
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Uniform 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform in [0, bound); bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        assert(bound != 0);
        // Rejection-free multiply-shift (Lemire) is fine for simulation.
        const unsigned __int128 m =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform in [lo, hi]; requires lo <= hi. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        assert(lo <= hi);
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p. */
    bool chance(double p) { return real() < p; }

    /**
     * Zipf-distributed value in [0, n).  Used to synthesize the skewed
     * vertex-degree and page-hotness distributions of the paper's
     * large/irregular workloads (LDBC datagen graphs are heavy-tailed).
     *
     * Uses the rejection method of Gries/Jacobsen; alpha > 0.
     */
    std::uint64_t
    zipf(std::uint64_t n, double alpha)
    {
        assert(n > 0);
        if (n == 1)
            return 0;
        // Both paths draw a continuous x and return floor(x) - 1, so
        // rank k corresponds to x in [k+1, k+2): x must range over
        // [1, n+1) or rank n-1 would have measure zero and the last
        // item could never be drawn (glaring when n is small, e.g. the
        // memcloud tenant count).
        if (alpha <= 1.001) {
            // Near alpha=1 the rejection sampler degenerates; a
            // log-uniform draw has the same 1/x density shape.
            const double x =
                std::pow(static_cast<double>(n) + 1.0, real());
            const auto v = static_cast<std::uint64_t>(x) - 1;
            return v < n ? v : n - 1;
        }
        // Rejection-inversion sampling (W. Hormann) over [1, n+1).
        const double b = std::pow(2.0, alpha - 1.0);
        double x, t;
        do {
            x = std::pow(real(), -1.0 / (alpha - 1.0));
            t = std::pow(1.0 + 1.0 / x, alpha - 1.0);
        } while (real() * x * (t - 1.0) * b > t * (b - 1.0) ||
                 x >= static_cast<double>(n) + 1.0);
        return static_cast<std::uint64_t>(x) - 1;
    }

    /** Geometric think-time style value with mean `mean` (>= 0). */
    std::uint64_t
    geometric(double mean)
    {
        if (mean <= 0.0)
            return 0;
        const double u = real();
        return static_cast<std::uint64_t>(
            -std::log1p(-u) * mean);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace tmcc

#endif // TMCC_COMMON_RNG_HH
