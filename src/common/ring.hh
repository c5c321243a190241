/**
 * @file
 * A FIFO ring that grows only when full and never shrinks.
 */

#ifndef MINOS_COMMON_RING_HH
#define MINOS_COMMON_RING_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace minos {

/**
 * FIFO of T in a power-of-two ring. It doubles when full and never
 * shrinks, so a steady stream of pushes and pops allocates only until
 * the ring has held its deepest occupancy once; a std::deque instead
 * allocates a block each time its ends cross one. A popped element stays
 * in its slot until a push overwrites it, so T is meant to be a plain
 * value.
 */
template <typename T>
class Ring
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** The @p i-th element from the front. */
    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask()]; }

    T &front() { return buf_[head_]; }
    T &back() { return (*this)[size_ - 1]; }

    void
    push_back(T v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_++) & mask()] = std::move(v);
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & mask();
        --size_;
    }

  private:
    std::size_t mask() const { return buf_.size() - 1; }

    void
    grow()
    {
        std::vector<T> grown(std::max<std::size_t>(8, 2 * size_));
        for (std::size_t i = 0; i < size_; ++i)
            grown[i] = std::move((*this)[i]);
        buf_.swap(grown);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace minos

#endif // MINOS_COMMON_RING_HH
