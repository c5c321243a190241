/**
 * @file
 * The repository's one open-addressing index, key -> dense slot number
 * (DESIGN.md §5f), and the chunked array its users keep slot state in.
 * The engines' pending-txn slab indexes writes and [PERSIST]sc
 * transactions with it, the audit's OpSlots writes and its ScopeTable
 * scopes, and nvm::DurableState its overlay's keys.
 */

#ifndef MINOS_COMMON_SLOT_INDEX_HH
#define MINOS_COMMON_SLOT_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.hh"

namespace minos {

/**
 * Append-only array in fixed chunks of ChunkLen elements: growth never
 * copies or moves an element, so a reference stays valid for the
 * array's life, and no chunk is large enough to need its own mapping.
 */
template <typename T, std::size_t ChunkLen = 256>
class ChunkedArray
{
  public:
    T &
    operator[](std::size_t i)
    {
        return chunks_[i / ChunkLen][i % ChunkLen];
    }

    const T &
    operator[](std::size_t i) const
    {
        return chunks_[i / ChunkLen][i % ChunkLen];
    }

    /** Append a value-initialized element and return it. */
    T &
    emplace_back()
    {
        if (size_ % ChunkLen == 0)
            chunks_.push_back(std::make_unique<T[]>(ChunkLen));
        return (*this)[size_++];
    }

    std::size_t size() const { return size_; }

  private:
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::size_t size_ = 0;
};

/**
 * Key -> slot index with linear probing. An entry is (hash32 << 32) |
 * (slot + 1), 0 when empty. The caller keeps the keys: every lookup
 * takes the key's hash and an isKey(slot) test, run on hash matches
 * only. The table starts at 64 entries and doubles past 3/4 load.
 */
class SlotIndex
{
  public:
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    /** Hash of a two-word key, e.g. a kv::WriteId. */
    static constexpr std::uint32_t
    hash(std::uint64_t a, std::uint64_t b)
    {
        return static_cast<std::uint32_t>(
            mix64(a * 0x9E3779B97F4A7C15ull ^ b));
    }

    /** Allocate the first table now, so the first insert does not. */
    void
    reserve()
    {
        if (index_.empty())
            index_.assign(initialSlots, 0);
    }

    /** Slot of the key, or none. */
    template <typename IsKey>
    std::uint32_t
    find(std::uint32_t h, IsKey &&isKey) const
    {
        if (index_.empty())
            return none;
        return slotOf(index_[probe(h, isKey)]);
    }

    /** Slot of the key; if absent, @p newSlot() names it (@p added). */
    template <typename IsKey, typename NewSlot>
    std::uint32_t
    insert(std::uint32_t h, IsKey &&isKey, NewSlot &&newSlot, bool &added)
    {
        reserve();
        const std::size_t pos = probe(h, isKey);
        added = index_[pos] == 0;
        if (!added)
            return slotOf(index_[pos]);
        const std::uint32_t slot = newSlot();
        index_[pos] = (std::uint64_t{h} << 32) | (slot + 1);
        if (++used_ > index_.size() / 4 * 3)
            grow();
        return slot;
    }

    /**
     * Remove the key; its slot, or none. Backward shift: each later
     * entry of the probe run moves into the hole unless its home lies
     * cyclically in (hole, entry], so no tombstones are left.
     */
    template <typename IsKey>
    std::uint32_t
    erase(std::uint32_t h, IsKey &&isKey)
    {
        if (index_.empty())
            return none;
        std::size_t hole = probe(h, isKey);
        const std::uint32_t slot = slotOf(index_[hole]);
        if (slot == none)
            return none;
        const std::size_t mask = index_.size() - 1;
        for (std::size_t j = (hole + 1) & mask; index_[j] != 0;
             j = (j + 1) & mask) {
            const std::size_t home = (index_[j] >> 32) & mask;
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                index_[hole] = index_[j];
                hole = j;
            }
        }
        index_[hole] = 0;
        --used_;
        return slot;
    }

    /** Empty the index, calling @p fn(slot) for every entry. */
    template <typename Fn>
    void
    clear(Fn &&fn)
    {
        for (std::uint64_t &e : index_) {
            if (e != 0)
                fn(slotOf(std::exchange(e, 0)));
        }
        used_ = 0;
    }

    /** Keys indexed. */
    std::size_t size() const { return used_; }

    /** Entries in the table: a key's home is hash modulo this. */
    std::size_t tableSize() const { return index_.size(); }

  private:
    static constexpr std::size_t initialSlots = 64;

    static std::uint32_t
    slotOf(std::uint64_t entry)
    {
        return static_cast<std::uint32_t>(entry) - 1;
    }

    /** The entry of the key, or the empty one where it belongs. */
    template <typename IsKey>
    std::size_t
    probe(std::uint32_t h, const IsKey &isKey) const
    {
        const std::size_t mask = index_.size() - 1;
        for (std::size_t i = h & mask;; i = (i + 1) & mask) {
            const std::uint64_t e = index_[i];
            if (e == 0 || (static_cast<std::uint32_t>(e >> 32) == h &&
                           isKey(slotOf(e))))
                return i;
        }
    }

    /** Double the table, re-placing every entry from its stored hash. */
    void
    grow()
    {
        std::vector<std::uint64_t> old(index_.size() * 2, 0);
        old.swap(index_);
        const std::size_t mask = index_.size() - 1;
        for (std::uint64_t e : old) {
            if (e == 0)
                continue;
            std::size_t i = (e >> 32) & mask;
            while (index_[i] != 0)
                i = (i + 1) & mask;
            index_[i] = e;
        }
    }

    std::vector<std::uint64_t> index_;
    std::size_t used_ = 0;
};

} // namespace minos

#endif // MINOS_COMMON_SLOT_INDEX_HH
