/**
 * @file
 * Fixed-capacity inline vector for hot-path result lists: no heap
 * traffic, and overflowing the static bound is a simulator bug (each
 * bound is derived from the maximum fan-out of one operation — the
 * writebacks / prefetches of one access, the PTB fetches of one walk).
 */

#ifndef TMCC_COMMON_SMALL_VEC_HH
#define TMCC_COMMON_SMALL_VEC_HH

#include <cstddef>

#include "common/log.hh"

namespace tmcc
{

template <class T, std::size_t N>
class SmallVec
{
  public:
    static constexpr std::size_t capacity = N;

    void
    push_back(const T &v)
    {
        // A branch rather than panicIf(): the message string is then
        // built only on the overflow path, never per push.
        if (count_ == N)
            panic("SmallVec overflow");
        items_[count_++] = v;
    }

    void clear() { count_ = 0; }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    const T *begin() const { return items_; }
    const T *end() const { return items_ + count_; }
    const T &operator[](std::size_t i) const { return items_[i]; }
    const T &back() const { return items_[count_ - 1]; }

  private:
    T items_[N];
    std::size_t count_ = 0;
};

} // namespace tmcc

#endif // TMCC_COMMON_SMALL_VEC_HH
