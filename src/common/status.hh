/**
 * @file
 * Lightweight, exception-free error propagation for corruption-safe
 * decode paths.
 *
 * The decompressors may be fed bitstreams that — as real DRAM
 * corruption would leave them — are arbitrary garbage.  panic()/fatal()
 * are reserved for internal invariant violations; *input* badness must
 * flow back to the caller instead of taking the simulator down.
 * Status/StatusOr<T> carry that outcome without exceptions, in the
 * spirit of absl::Status / gem5's Fault.
 */

#ifndef TMCC_COMMON_STATUS_HH
#define TMCC_COMMON_STATUS_HH

#include <optional>
#include <string>
#include <utility>

#include "common/log.hh"

namespace tmcc
{

/** Coarse error taxonomy; Corruption/Truncated are the decode workhorses. */
enum class StatusCode : std::uint8_t
{
    Ok = 0,
    Corruption,      //!< bitstream violates the format's invariants
    Truncated,       //!< bitstream ended before the decode completed
    ChecksumMismatch, //!< payload decoded but failed its CRC
    InvalidArgument, //!< caller passed an out-of-contract value
    Internal,        //!< should-not-happen, kept recoverable
};

const char *statusCodeName(StatusCode code);

/** An outcome: Ok or an error code plus a human-readable message. */
class Status
{
  public:
    /** Default-constructed Status is Ok. */
    Status() = default;

    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {}

    static Status okStatus() { return Status{}; }

    static Status
    corruption(std::string msg)
    {
        return {StatusCode::Corruption, std::move(msg)};
    }

    static Status
    truncated(std::string msg)
    {
        return {StatusCode::Truncated, std::move(msg)};
    }

    static Status
    checksumMismatch(std::string msg)
    {
        return {StatusCode::ChecksumMismatch, std::move(msg)};
    }

    static Status
    invalidArgument(std::string msg)
    {
        return {StatusCode::InvalidArgument, std::move(msg)};
    }

    static Status
    internal(std::string msg)
    {
        return {StatusCode::Internal, std::move(msg)};
    }

    bool ok() const { return code_ == StatusCode::Ok; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    std::string
    toString() const
    {
        if (ok())
            return "OK";
        return std::string(statusCodeName(code_)) + ": " + message_;
    }

    bool operator==(const Status &o) const { return code_ == o.code_; }

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

inline const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok: return "OK";
      case StatusCode::Corruption: return "CORRUPTION";
      case StatusCode::Truncated: return "TRUNCATED";
      case StatusCode::ChecksumMismatch: return "CHECKSUM_MISMATCH";
      case StatusCode::InvalidArgument: return "INVALID_ARGUMENT";
      case StatusCode::Internal: return "INTERNAL";
    }
    return "?";
}

/**
 * Either a value or the Status explaining why there is none.
 * value() panics on an error result — call sites that can recover must
 * check ok() first; call sites that trust their input (self-produced
 * bitstreams in tests and benches) may chain .value() directly.
 */
template <typename T>
class StatusOr
{
  public:
    /** Error result; `status` must not be Ok. */
    StatusOr(Status status) : status_(std::move(status)) // NOLINT implicit
    {
        panicIf(status_.ok(), "StatusOr built from an Ok status");
    }

    /** Success result. */
    StatusOr(T value) : value_(std::move(value)) {} // NOLINT implicit

    bool ok() const { return status_.ok(); }
    const Status &status() const { return status_; }

    const T &
    value() const &
    {
        panicIf(!ok(), "StatusOr::value() on error: " + status_.toString());
        return *value_;
    }

    T &
    value() &
    {
        panicIf(!ok(), "StatusOr::value() on error: " + status_.toString());
        return *value_;
    }

    T &&
    value() &&
    {
        panicIf(!ok(), "StatusOr::value() on error: " + status_.toString());
        return std::move(*value_);
    }

    const T *operator->() const { return &value(); }
    const T &operator*() const & { return value(); }

  private:
    Status status_;
    std::optional<T> value_;
};

// Early-return helpers in the style of absl's macros.
#define TMCC_STATUS_CONCAT_INNER(a, b) a##b
#define TMCC_STATUS_CONCAT(a, b) TMCC_STATUS_CONCAT_INNER(a, b)

/** Propagate a non-Ok Status to the caller. */
#define TMCC_RETURN_IF_ERROR(expr)                                        \
    do {                                                                  \
        ::tmcc::Status tmcc_status_tmp = (expr);                          \
        if (!tmcc_status_tmp.ok())                                        \
            return tmcc_status_tmp;                                       \
    } while (0)

/** Unwrap a StatusOr into `lhs`, propagating errors to the caller. */
#define TMCC_ASSIGN_OR_RETURN(lhs, expr)                                  \
    auto TMCC_STATUS_CONCAT(tmcc_sor_, __LINE__) = (expr);                \
    if (!TMCC_STATUS_CONCAT(tmcc_sor_, __LINE__).ok())                    \
        return TMCC_STATUS_CONCAT(tmcc_sor_, __LINE__).status();          \
    lhs = std::move(TMCC_STATUS_CONCAT(tmcc_sor_, __LINE__)).value()

} // namespace tmcc

#endif // TMCC_COMMON_STATUS_HH
