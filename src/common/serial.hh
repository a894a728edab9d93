/**
 * @file
 * Minimal little-endian byte serialization for sweep file payloads.
 *
 * ByteWriter appends fixed-width integers / doubles / length-prefixed
 * blobs to a growable buffer; ByteReader consumes the same encoding with
 * bounds checking.  A reader never throws or aborts on malformed input:
 * overruns latch a failure flag, subsequent reads return zeros, and the
 * caller converts the flag into a Status (sweep files are
 * CRC-protected, but the decoder must stay safe on the 2^-32 escapes and
 * on hand-corrupted test inputs).
 */

#ifndef TMCC_COMMON_SERIAL_HH
#define TMCC_COMMON_SERIAL_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hh"

namespace tmcc
{

/** Append-only little-endian encoder. */
class ByteWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    f64(double v)
    {
        u64(std::bit_cast<std::uint64_t>(v));
    }

    /** Length-prefixed raw bytes. */
    void
    bytes(const void *data, std::size_t n)
    {
        u64(n);
        raw(data, n);
    }

    /** Raw bytes without a length prefix (fixed-size records). */
    void
    raw(const void *data, std::size_t n)
    {
        // resize + memcpy, not insert: GCC 12 at -O2 reports a false
        // -Wstringop-overflow for a range insert into an empty vector.
        if (n == 0)
            return;
        const std::size_t at = buf_.size();
        buf_.resize(at + n);
        std::memcpy(buf_.data() + at, data, n);
    }

    void str(const std::string &s) { bytes(s.data(), s.size()); }

    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked decoder over a borrowed buffer.  The buffer must
 * outlive the reader.  On the first overrun ok() turns false and every
 * later read returns a zero value.
 */
class ByteReader
{
  public:
    ByteReader(const void *data, std::size_t size)
        : data_(static_cast<const std::uint8_t *>(data)), size_(size)
    {}

    explicit ByteReader(const std::vector<std::uint8_t> &buf)
        : ByteReader(buf.data(), buf.size())
    {}

    std::uint8_t
    u8()
    {
        if (!take(1))
            return 0;
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        if (!take(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!take(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    double f64() { return std::bit_cast<double>(u64()); }

    std::vector<std::uint8_t>
    bytes()
    {
        const std::uint64_t n = u64();
        if (!take(n))
            return {};
        std::vector<std::uint8_t> out(data_ + pos_, data_ + pos_ + n);
        pos_ += n;
        return out;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        if (!take(n))
            return {};
        std::string out(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return out;
    }

    /** Raw copy of `n` bytes into `dst` (no length prefix). */
    void
    raw(void *dst, std::size_t n)
    {
        if (!take(n)) {
            std::memset(dst, 0, n);
            return;
        }
        std::memcpy(dst, data_ + pos_, n);
        pos_ += n;
    }

    /**
     * Read an element count that must be plausible: each element
     * occupies at least `minElemBytes` of remaining input.  Guards
     * vector reserves against absurd corrupt counts.
     */
    std::uint64_t
    count(std::size_t minElemBytes)
    {
        const std::uint64_t n = u64();
        if (minElemBytes > 0 && n > remaining() / minElemBytes) {
            fail_ = true;
            return 0;
        }
        return n;
    }

    bool ok() const { return !fail_; }
    std::size_t remaining() const { return size_ - pos_; }

    /** Failure flag plus "did we consume everything" as a Status. */
    Status
    finish(const std::string &what) const
    {
        if (fail_)
            return Status::truncated(what + ": payload too short");
        if (pos_ != size_)
            return Status::corruption(what + ": trailing bytes");
        return Status::okStatus();
    }

  private:
    bool
    take(std::size_t n)
    {
        if (fail_ || n > size_ - pos_) {
            fail_ = true;
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool fail_ = false;
};

} // namespace tmcc

#endif // TMCC_COMMON_SERIAL_HH
