/**
 * @file
 * Pending-transaction store of one protocol engine: a slab of
 * per-write records with recycled slots, indexed by TxnKey in an
 * open-addressing table (DESIGN.md §5f).
 *
 * A slot's lifetime is an intrusive hold count. The index holds each
 * entry once; every other owner that must see the record after a
 * suspension or from a deferred callback takes a Hold. A slot is
 * recycled when its last hold goes, and recycling bumps its generation,
 * so a Handle that outlives its slot trips a MINOS_ASSERT instead of
 * reading another write's record.
 *
 * Steady state does not allocate: slots live in fixed 64-slot chunks
 * that never move and are reused LIFO, and the index only grows.
 */

#ifndef MINOS_SIMPROTO_TXN_SLAB_HH
#define MINOS_SIMPROTO_TXN_SLAB_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "simproto/models.hh"

namespace minos::simproto {

template <typename T>
class TxnSlab
{
    class Store;

  public:
    /** Non-owning, generation-checked name of one slot. */
    struct Handle
    {
        std::uint32_t slot = 0;
        std::uint32_t gen = 0; ///< 0 never names a live slot
    };

    /** One counted hold on a slot; copies hold it again. */
    class Hold
    {
      public:
        Hold() = default;

        Hold(const Hold &o) : store_(o.store_), h_(o.h_)
        {
            if (store_)
                store_->hold(h_);
        }

        Hold(Hold &&o) noexcept
            : store_(std::exchange(o.store_, nullptr)), h_(o.h_)
        {
        }

        Hold &
        operator=(Hold o) noexcept
        {
            std::swap(store_, o.store_);
            std::swap(h_, o.h_);
            return *this;
        }

        ~Hold()
        {
            if (store_)
                store_->release(h_);
        }

        explicit operator bool() const { return store_ != nullptr; }
        T &operator*() const { return store_->get(h_); }
        T *operator->() const { return &store_->get(h_); }
        Handle handle() const { return h_; }

      private:
        friend class TxnSlab;

        Hold(Store *store, Handle h) : store_(store), h_(h)
        {
            store_->hold(h_);
        }

        Store *store_ = nullptr;
        Handle h_;
    };

    TxnSlab() : store_(new Store) {}

    /** Holds still out (frames reclaimed after the engine, pending
     *  events) keep the store alive; the last one frees it. */
    ~TxnSlab() { store_->close(); }

    TxnSlab(const TxnSlab &) = delete;
    TxnSlab &operator=(const TxnSlab &) = delete;

    /** Add a default-constructed record for @p key and hold it; an
     *  empty Hold if @p key is already indexed. */
    Hold
    insert(const TxnKey &key)
    {
        Handle h;
        if (!store_->insert(key, h))
            return {};
        return Hold(store_, h);
    }

    /** Hold the record of @p key; an empty Hold if it is not indexed. */
    Hold
    find(const TxnKey &key)
    {
        Handle h;
        if (!store_->find(key, h))
            return {};
        return Hold(store_, h);
    }

    /** Drop @p key from the index (and its index hold); false if it
     *  was not there. The slot is recycled once no Hold remains. */
    bool erase(const TxnKey &key) { return store_->erase(key); }

    /** The record @p h names; asserts that its slot was not recycled. */
    T &operator[](Handle h) const { return store_->get(h); }

    /** Indexed records. */
    std::size_t size() const { return store_->size(); }

    /** Records not yet recycled: indexed, or retired but still held. */
    std::size_t live() const { return store_->live(); }

    /** @{ The index layout, for tests: an entry's home slot is
     *  hashOf(key) modulo indexSlots(). */
    static std::uint32_t
    hashOf(const TxnKey &key)
    {
        std::uint64_t x = key.first * 0x9E3779B97F4A7C15ull ^ key.second;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
        return static_cast<std::uint32_t>(x ^ (x >> 31));
    }

    std::size_t indexSlots() const { return store_->indexSlots(); }
    /** @} */

  private:
    Store *store_;
};

template <typename T>
class TxnSlab<T>::Store
{
  public:
    bool
    insert(const TxnKey &key, Handle &out)
    {
        const std::uint32_t h = hashOf(key);
        const std::size_t pos = probe(key, h);
        if (index_[pos] != 0)
            return false;
        out = acquire(key);
        index_[pos] = (std::uint64_t{h} << 32) | (out.slot + 1);
        if (++used_ > index_.size() / 4 * 3)
            grow();
        return true;
    }

    bool
    find(const TxnKey &key, Handle &out)
    {
        const std::uint64_t e = index_[probe(key, hashOf(key))];
        if (e == 0)
            return false;
        out = handleOf(e);
        return true;
    }

    bool
    erase(const TxnKey &key)
    {
        const std::size_t pos = probe(key, hashOf(key));
        const std::uint64_t e = index_[pos];
        if (e == 0)
            return false;
        removeAt(pos);
        release(handleOf(e));
        return true;
    }

    T &get(Handle h) { return checked(h).value; }

    void hold(Handle h) { ++checked(h).holds; }

    void
    release(Handle h)
    {
        Slot &s = checked(h);
        if (--s.holds != 0)
            return;
        ++s.gen;
        s.nextFree = freeHead_;
        freeHead_ = h.slot;
        if (--live_ == 0 && closed_)
            delete this;
    }

    /** The owning engine is gone: drop the index holds, then free the
     *  store now or when the last Hold goes. */
    void
    close()
    {
        for (std::uint64_t &e : index_) {
            if (e != 0)
                release(handleOf(std::exchange(e, 0)));
        }
        used_ = 0;
        if (live_ == 0)
            delete this;
        else
            closed_ = true;
    }

    std::size_t size() const { return used_; }
    std::size_t live() const { return live_; }
    std::size_t indexSlots() const { return index_.size(); }

  private:
    struct Slot
    {
        T value{};
        TxnKey key{};
        std::uint32_t gen = 1;
        std::uint32_t holds = 0;
        std::uint32_t nextFree = 0;
    };

    static constexpr std::uint32_t chunkBits = 6;
    static constexpr std::uint32_t chunkSize = 1u << chunkBits;
    static constexpr std::uint32_t noSlot = ~std::uint32_t{0};
    static constexpr std::size_t initialIndexSlots = 64;

    Slot &
    at(std::uint32_t i)
    {
        return chunks_[i >> chunkBits][i & (chunkSize - 1)];
    }

    Slot &
    checked(Handle h)
    {
        MINOS_ASSERT(h.slot < numSlots_ && at(h.slot).gen == h.gen,
                     "stale txn handle: slot ", h.slot, " gen ", h.gen);
        return at(h.slot);
    }

    Handle
    handleOf(std::uint64_t entry)
    {
        const auto slot = static_cast<std::uint32_t>(entry) - 1;
        return {slot, at(slot).gen};
    }

    /** A fresh or recycled (LIFO) slot for @p key, held by the index. */
    Handle
    acquire(const TxnKey &key)
    {
        std::uint32_t i = freeHead_;
        if (i != noSlot) {
            freeHead_ = at(i).nextFree;
        } else {
            if ((numSlots_ & (chunkSize - 1)) == 0)
                chunks_.push_back(std::make_unique<Slot[]>(chunkSize));
            i = numSlots_++;
        }
        Slot &s = at(i);
        s.value = T{};
        s.key = key;
        s.holds = 1;
        ++live_;
        return {i, s.gen};
    }

    /**
     * Linear probing from the home slot (DESIGN.md §5f): an entry is
     * (hash << 32) | (slot + 1), 0 when empty, and the key in the slab
     * is read only on a hash match. Returns the entry of @p key, or the
     * empty slot where it belongs.
     */
    std::size_t
    probe(const TxnKey &key, std::uint32_t h)
    {
        const std::size_t mask = index_.size() - 1;
        for (std::size_t i = h & mask;; i = (i + 1) & mask) {
            const std::uint64_t e = index_[i];
            if (e == 0 || (static_cast<std::uint32_t>(e >> 32) == h &&
                           at(static_cast<std::uint32_t>(e) - 1).key == key))
                return i;
        }
    }

    /**
     * Backward-shift deletion: pull each later entry of the probe run
     * into the hole unless its home slot lies cyclically in
     * (hole, entry], so no tombstones are left and lookups stay short.
     */
    void
    removeAt(std::size_t hole)
    {
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
    }

    /** Double the index, re-placing every entry from its stored hash. */
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

    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::uint32_t numSlots_ = 0;
    std::uint32_t freeHead_ = noSlot;
    std::size_t live_ = 0;
    bool closed_ = false;

    std::vector<std::uint64_t> index_ =
        std::vector<std::uint64_t>(initialIndexSlots, 0);
    std::size_t used_ = 0;
};

} // namespace minos::simproto

#endif // MINOS_SIMPROTO_TXN_SLAB_HH
