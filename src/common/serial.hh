/**
 * @file
 * Minimal little-endian byte encoder: ByteWriter appends fixed-width
 * integers, doubles (as their bit patterns) and length-prefixed strings
 * to a growable buffer.  serializeSimResult writes the bytes the golden
 * digests are computed over.
 */

#ifndef TMCC_COMMON_SERIAL_HH
#define TMCC_COMMON_SERIAL_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace tmcc
{

/** Append-only little-endian encoder. */
class ByteWriter
{
  public:
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

    /** Length-prefixed string bytes. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        // resize + memcpy, not insert: GCC 12 at -O2 reports a false
        // -Wstringop-overflow for a range insert into an empty vector.
        if (s.empty())
            return;
        const std::size_t at = buf_.size();
        buf_.resize(at + s.size());
        std::memcpy(buf_.data() + at, s.data(), s.size());
    }

    const std::vector<std::uint8_t> &buffer() const { return buf_; }

  private:
    std::vector<std::uint8_t> buf_;
};

} // namespace tmcc

#endif // TMCC_COMMON_SERIAL_HH
