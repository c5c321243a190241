/**
 * @file
 * The model checker's set of reached states, kept as 64-bit fingerprints.
 */

#ifndef MINOS_CHECK_FINGERPRINT_SET_HH
#define MINOS_CHECK_FINGERPRINT_SET_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

namespace minos::check {

/**
 * Set of reached states, kept as 64-bit fingerprints the way TLC keeps
 * them: no state is stored, so a probe never reads one. Open addressing
 * with linear probing from fp & mask over 8-byte slots; 0 marks an
 * empty slot, so a zero fingerprint is stored as zeroFp. Two distinct
 * states with one fingerprint would be merged; the checker's
 * fingerprintCollisionBound() bounds the chance of that.
 *
 * The slots live in one malloc block that doubles in place past 3/4
 * load (glibc's realloc moves a large block with mremap, not a copy),
 * so the old and the new table are never both live.
 */
class FingerprintSet
{
  public:
    FingerprintSet()
    {
        resize(initialSlots);
        std::memset(slots_, 0, initialSlots * sizeof *slots_);
    }

    ~FingerprintSet() { std::free(slots_); }

    FingerprintSet(const FingerprintSet &) = delete;
    FingerprintSet &operator=(const FingerprintSet &) = delete;

    /** Add @p fp; false if it was already present. */
    bool
    insert(std::uint64_t fp)
    {
        fp = fp ? fp : zeroFp;
        std::size_t i = fp & mask_;
        for (; slots_[i] != 0; i = (i + 1) & mask_) {
            if (slots_[i] == fp)
                return false;
        }
        slots_[i] = fp;
        if (++used_ > (mask_ + 1) / 4 * 3)
            grow();
        return true;
    }

    /** Start loading the home slot of @p fp. */
    void
    prefetch(std::uint64_t fp) const
    {
        __builtin_prefetch(&slots_[fp & mask_]);
    }

    /** Number of fingerprints stored. */
    std::size_t size() const { return used_; }

    /** Number of slots. */
    std::size_t slots() const { return mask_ + 1; }

  private:
    static constexpr std::size_t initialSlots = 512;
    static constexpr std::uint64_t zeroFp = 0x9E3779B97F4A7C15ull;

    /** Resize the block to @p n slots, keeping its contents. */
    void
    resize(std::size_t n)
    {
        void *p = std::realloc(slots_, n * sizeof *slots_);
        if (!p)
            throw std::bad_alloc();
        slots_ = static_cast<std::uint64_t *>(p);
        mask_ = n - 1;
    }

    /**
     * Double the table in place; no state is rehashed. The new half
     * starts empty. One pass then moves each stored fingerprint to the
     * first slot on its new probe path that is empty or holds a
     * fingerprint not yet moved, and carries a fingerprint it displaces
     * on the same way. A moved one is never displaced again, so the
     * probe path of each stays filled. Every fingerprint in the new half
     * has been moved; in the old half, a bitmap marks the moved ones.
     */
    void
    grow()
    {
        const std::size_t n = mask_ + 1;
        resize(2 * n);
        std::memset(slots_ + n, 0, n * sizeof *slots_);
        std::vector<std::uint64_t> moved(n / 64, 0);
        auto isMoved = [&](std::size_t j) {
            return j >= n || (moved[j / 64] >> (j % 64) & 1);
        };
        for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t fp = slots_[i];
            if (fp == 0 || isMoved(i))
                continue;
            slots_[i] = 0;
            while (fp != 0) {
                std::size_t j = fp & mask_;
                while (slots_[j] != 0 && isMoved(j))
                    j = (j + 1) & mask_;
                std::swap(fp, slots_[j]);
                if (j < n)
                    moved[j / 64] |= std::uint64_t{1} << (j % 64);
            }
        }
    }

    std::uint64_t *slots_ = nullptr;
    std::size_t mask_ = 0;
    std::size_t used_ = 0;
};

} // namespace minos::check

#endif // MINOS_CHECK_FINGERPRINT_SET_HH
