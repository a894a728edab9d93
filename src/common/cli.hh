/**
 * @file
 * Command-line and environment parsing for the front ends.  One table
 * row per flag (name, value placeholder, help, setter, optional
 * environment default) drives parsing, validation and the generated
 * `--help`, and one strict, range-checked number parser serves every
 * numeric flag and environment knob.  Every error is a fatal() naming
 * the flag or variable.
 */

#ifndef TMCC_COMMON_CLI_HH
#define TMCC_COMMON_CLI_HH

#include <charconv>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/log.hh"

namespace tmcc::cli
{

/** The smallest positive double: the `lo` of a "positive number". */
inline constexpr double kPositive =
    std::numeric_limits<double>::denorm_min();

/** "a positive integer", "a rate in [0, 1]", ...: [lo, hi] in words. */
template <typename T>
std::string
rangeText(T lo, T hi)
{
    const bool unbounded = hi == std::numeric_limits<T>::max();
    if constexpr (std::is_integral_v<T>) {
        if (unbounded && lo <= 1)
            return lo ? "a positive integer" : "a non-negative integer";
    } else {
        if (unbounded && (lo == 0 || lo == kPositive))
            return lo > 0 ? "a positive number" : "a non-negative number";
        if (lo == 0 && hi == 1)
            return "a rate in [0, 1]";
    }
    return std::string(std::is_integral_v<T> ? "an integer" : "a number") +
           " in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
}

/**
 * The whole of `text` as a T in [lo, hi], or nullopt.  Integers
 * (unsigned types only) take base-10 digits and nothing else -- no
 * sign, space or exponent; reals must be finite.  A value beyond T's
 * own range is rejected, never narrowed.  `overflow`, when given, is
 * set for integer digits too large for T.
 */
template <typename T>
std::optional<T>
tryParseNumber(std::string_view text, T lo,
               std::type_identity_t<T> hi = std::numeric_limits<T>::max(),
               bool *overflow = nullptr)
{
    static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
    const char *end = text.data() + text.size();
    T v{};
    std::from_chars_result r;
    if constexpr (std::is_integral_v<T>)
        r = std::from_chars(text.data(), end, v, 10);
    else
        r = std::from_chars(text.data(), end, v, std::chars_format::general);
    if (overflow)
        *overflow = std::is_integral_v<T> &&
                    r.ec == std::errc::result_out_of_range && r.ptr == end;
    if (text.empty() || r.ec != std::errc() || r.ptr != end ||
        !std::isfinite(static_cast<double>(v)) || v < lo || v > hi)
        return std::nullopt;
    return v;
}

/** tryParseNumber, or fail with "<what> must be <range>, got ...". */
template <typename T>
T
parseNumber(const std::string &what, std::string_view text, T lo,
            std::type_identity_t<T> hi = std::numeric_limits<T>::max())
{
    bool overflow = false;
    if (const std::optional<T> v = tryParseNumber(text, lo, hi, &overflow))
        return *v;
    fatal(what + " must be " + rangeText(lo, hi) + ", got \"" +
         std::string(text) + "\"" +
         (overflow ? " (max " + std::to_string(hi) + ")" : ""));
}

/** Environment variable `name`; nullopt when unset or empty. */
std::optional<std::string> envValue(const char *name);

/** envValue parsed by parseNumber (the message names the variable). */
template <typename T>
std::optional<T>
envNumber(const char *name, T lo, T hi = std::numeric_limits<T>::max())
{
    const std::optional<std::string> v = envValue(name);
    return v ? std::optional<T>(parseNumber<T>(name, *v, lo, hi))
             : std::nullopt;
}

/** A flag's values, one per word of its metavar. */
using Values = std::vector<std::string>;

/** Applies one flag; `what` is the flag or environment variable name. */
using Setter = std::function<void(const std::string &what, const Values &)>;

/**
 * A setter storing into `target`; its type picks the parser:
 * std::string verbatim, bool as a switch (set true),
 * unsigned/u64/double through parseNumber in [lo, hi], and any other
 * type through a `parseFlagValue(what, text, T &)` declared beside it.
 */
template <typename T>
Setter
bind(T &target, std::type_identity_t<T> lo = {},
     std::type_identity_t<T> hi = std::numeric_limits<T>::max())
{
    return [&target, lo, hi](const std::string &what, const Values &v) {
        if constexpr (std::is_same_v<T, std::string>)
            target = v.at(0);
        else if constexpr (std::is_same_v<T, bool>)
            target = true;
        else if constexpr (std::is_arithmetic_v<T>)
            target = parseNumber<T>(what, v.at(0), lo, hi);
        else
            parseFlagValue(what, v.at(0), target);
    };
}

/** One row of a front end's flag table. */
struct Flag
{
    std::string name;    //!< "--scale"
    std::string metavar; //!< one word per value ("FILE N"); empty = switch
    std::string help;    //!< one paragraph
    Setter set;
    std::string env = {}; //!< environment variable supplying a default
};

/** `header`, then one aligned, wrapped entry per row. */
std::string usage(const std::string &header, const std::vector<Flag> &flags);

/**
 * Apply `flags` to a command line.  First every row whose environment
 * variable is set and non-empty is applied, in row order; then argv is
 * read in order.  A valued flag takes `--flag value` or `--flag=value`
 * (the `=` supplies its first value); a switch takes neither.
 * `--help`/`-h` prints usage(header, flags) and exits 0; an unknown
 * flag, a missing value or a value given to a switch fails.
 */
void parse(const std::string &header, const std::vector<Flag> &flags,
           int argc, const char *const *argv);

} // namespace tmcc::cli

#endif // TMCC_COMMON_CLI_HH
