/**
 * @file
 * Durable state of a simulated node, kept as its difference from the
 * node's record store.
 *
 * The paper defines durability per key (§III-B): persists may land out
 * of order, and a key's durable state keeps the first persisted update
 * and then only strictly newer ones (DurableRecord::offer). A simulated
 * node keeps the result of that rule as a difference from its records:
 * the durable (value, TS_WR) of a key is its record's (value, volatileTS),
 * except for the keys in a small overlay, which hold their own. A key is
 * in the overlay exactly while the two differ, in either direction: an
 * applied update not yet persisted, or (MINOS-O) a persisted one not yet
 * drained into the record. Every applied update is also persisted, so
 * the overlay is empty at quiescence, and its size is the number of keys
 * whose durable state lags (or leads) the volatile one.
 */

#ifndef MINOS_NVM_DURABLE_STATE_HH
#define MINOS_NVM_DURABLE_STATE_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/slot_index.hh"
#include "kv/record.hh"
#include "kv/store.hh"
#include "nvm/log.hh"

namespace minos::nvm {

/** Records plus overlay; see the file comment. */
class DurableState
{
  public:
    /** Sized for the keys that lag in a typical run, so that such a
     *  run allocates nothing for the overlay once it starts. */
    DurableState();

    /**
     * Record-apply hook: @p rec, the record of @p key, takes (@p value,
     * @p ts) as its (value, volatileTS). Every write to a record's value
     * goes through here, so the overlay tracks the difference.
     */
    void apply(kv::Record &rec, kv::Key key, kv::Value value,
               kv::Timestamp ts);

    /**
     * Persist hook: the update (@p key, @p value, @p ts) became durable;
     * @p rec is the record of @p key. The first persist of a key enters,
     * then only a strictly newer TS replaces the durable state.
     */
    void persist(const kv::Record &rec, kv::Key key, kv::Value value,
                 kv::Timestamp ts);

    /** Updates persisted so far, obsolete ones included. */
    std::size_t size() const { return persists_; }

    /** Keys whose durable state differs from their record now. */
    std::size_t lagging() const { return index_.size(); }

    /** Most keys that differed at once. */
    std::size_t peakLagging() const { return peak_; }

    /** Durable record of @p key, whose record is @p rec; nullopt if
     *  nothing of @p key was persisted. */
    std::optional<DurableRecord> at(const kv::Record &rec,
                                    kv::Key key) const;

    /** The durable database over @p store, the records this state
     *  follows: what offering every persist to a DurableRecord per key
     *  gives. */
    DurableDb db(const kv::SimStore &store) const;

  private:
    /** One overlay entry: the durable (value, TS) of a key; a TS of
     *  none means the key has no durable update yet. A free entry has
     *  the key emptyKey, and its value names the next free entry. */
    struct Entry
    {
        kv::Key key = emptyKey;
        kv::Value value = 0;
        kv::Timestamp ts;
    };

    static constexpr kv::Key emptyKey = ~kv::Key{0};

    void insert(kv::Key key, kv::Value value, kv::Timestamp ts);
    void erase(kv::Key key);

    static std::uint32_t hash(kv::Key key) { return SlotIndex::hash(key, 0); }

    auto
    isKey(kv::Key key) const
    {
        return [this, key](std::uint32_t i) { return entries_[i].key == key; };
    }

    /** The overlay, key -> entry, in the shared SlotIndex. Freed
     *  entries are reused, and neither array shrinks, so a steady state
     *  allocates nothing. */
    SlotIndex index_;
    std::vector<Entry> entries_;
    std::uint32_t freeHead_ = SlotIndex::none;
    std::size_t peak_ = 0;
    std::size_t persists_ = 0;
};

} // namespace minos::nvm

#endif // MINOS_NVM_DURABLE_STATE_HH
