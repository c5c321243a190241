/**
 * @file
 * Pending-transaction store of one protocol engine: a slab of
 * per-write records with recycled slots, indexed by kv::WriteId in the
 * shared SlotIndex (common/slot_index.hh, DESIGN.md §5f).
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
#include <utility>

#include "common/logging.hh"
#include "common/slot_index.hh"
#include "kv/timestamp.hh"

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
    Hold insert(const kv::WriteId &key) { return hold(store_->insert(key)); }

    /** Hold the record of @p key; an empty Hold if it is not indexed. */
    Hold find(const kv::WriteId &key) { return hold(store_->find(key)); }

    /** Drop @p key from the index (and its index hold); false if it
     *  was not there. The slot is recycled once no Hold remains. */
    bool erase(const kv::WriteId &key) { return store_->erase(key); }

    /** The record @p h names; asserts that its slot was not recycled. */
    T &operator[](Handle h) const { return store_->get(h); }

    /** Indexed records. */
    std::size_t size() const { return store_->size(); }

    /** Records not yet recycled: indexed, or retired but still held. */
    std::size_t live() const { return store_->live(); }

    /** @{ The index layout, for tests: an entry's home slot is
     *  hashOf(key) modulo indexSlots(). */
    static std::uint32_t hashOf(const kv::WriteId &key) { return key.hash(); }

    std::size_t indexSlots() const { return store_->indexSlots(); }
    /** @} */

  private:
    Hold
    hold(std::uint32_t slot)
    {
        if (slot == SlotIndex::none)
            return {};
        return Hold(store_, store_->handle(slot));
    }

    Store *store_;
};

template <typename T>
class TxnSlab<T>::Store
{
  public:
    Store() { index_.reserve(); }

    /** Slot of a new record for @p key; none if @p key is indexed. */
    std::uint32_t
    insert(const kv::WriteId &key)
    {
        bool added = false;
        const std::uint32_t slot = index_.insert(
            key.hash(), isKey(key), [&] { return acquire(key); }, added);
        return added ? slot : SlotIndex::none;
    }

    std::uint32_t
    find(const kv::WriteId &key)
    {
        return index_.find(key.hash(), isKey(key));
    }

    bool
    erase(const kv::WriteId &key)
    {
        const std::uint32_t slot = index_.erase(key.hash(), isKey(key));
        if (slot != SlotIndex::none)
            release(handle(slot));
        return slot != SlotIndex::none;
    }

    Handle handle(std::uint32_t slot) { return {slot, slots_[slot].gen}; }

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
        index_.clear([this](std::uint32_t slot) { release(handle(slot)); });
        if (live_ == 0)
            delete this;
        else
            closed_ = true;
    }

    std::size_t size() const { return index_.size(); }
    std::size_t live() const { return live_; }
    std::size_t indexSlots() const { return index_.tableSize(); }

  private:
    struct Slot
    {
        T value{};
        kv::WriteId key{};
        std::uint32_t gen = 1;
        std::uint32_t holds = 0;
        std::uint32_t nextFree = 0;
    };

    auto
    isKey(const kv::WriteId &key)
    {
        return [this, &key](std::uint32_t s) { return slots_[s].key == key; };
    }

    Slot &
    checked(Handle h)
    {
        MINOS_ASSERT(h.slot < slots_.size() && slots_[h.slot].gen == h.gen,
                     "stale txn handle: slot ", h.slot, " gen ", h.gen);
        return slots_[h.slot];
    }

    /** A fresh or recycled (LIFO) slot for @p key, held by the index. */
    std::uint32_t
    acquire(const kv::WriteId &key)
    {
        std::uint32_t i = freeHead_;
        if (i != SlotIndex::none) {
            freeHead_ = slots_[i].nextFree;
        } else {
            i = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        }
        Slot &s = slots_[i];
        s.value = T{};
        s.key = key;
        s.holds = 1;
        ++live_;
        return i;
    }

    ChunkedArray<Slot, 64> slots_;
    std::uint32_t freeHead_ = SlotIndex::none;
    std::size_t live_ = 0;
    bool closed_ = false;
    SlotIndex index_;
};

} // namespace minos::simproto

#endif // MINOS_SIMPROTO_TXN_SLAB_HH
