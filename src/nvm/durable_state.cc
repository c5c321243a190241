#include "durable_state.hh"

#include <algorithm>

namespace minos::nvm {

using kv::Key;
using kv::Record;
using kv::Timestamp;
using kv::Value;

DurableState::DurableState()
{
    // The index's first table holds 48 keys before it grows.
    index_.reserve();
    entries_.reserve(48);
}

void
DurableState::apply(Record &rec, Key key, Value value, Timestamp ts)
{
    const std::uint32_t i = index_.find(hash(key), isKey(key));
    if (i == SlotIndex::none) {
        // The durable state was the record's; keep it as the record
        // moves on.
        if (rec.volatileTs != ts || rec.value != value)
            insert(key, rec.value, rec.volatileTs);
    } else if (entries_[i].ts == ts && entries_[i].value == value) {
        erase(key); // the record caught up with a persist that led it
    }
    rec.value = value;
    rec.volatileTs = ts;
}

void
DurableState::persist(const Record &rec, Key key, Value value,
                      Timestamp ts)
{
    ++persists_;
    const std::uint32_t i = index_.find(hash(key), isKey(key));
    const bool in = i != SlotIndex::none;
    // A key never persisted has TS none, older than any update's.
    if (!DurableRecord::supersedes(ts, in ? entries_[i].ts : rec.volatileTs))
        return;
    if (ts == rec.volatileTs && value == rec.value) {
        if (in)
            erase(key);
    } else if (in) {
        entries_[i].value = value;
        entries_[i].ts = ts;
    } else {
        insert(key, value, ts);
    }
}

std::optional<DurableRecord>
DurableState::at(const Record &rec, Key key) const
{
    const std::uint32_t i = index_.find(hash(key), isKey(key));
    const bool in = i != SlotIndex::none;
    const Value value = in ? entries_[i].value : rec.value;
    const Timestamp ts = in ? entries_[i].ts : rec.volatileTs;
    if (ts.isNone())
        return std::nullopt;
    return DurableRecord{value, ts};
}

DurableDb
DurableState::db(const kv::SimStore &store) const
{
    DurableDb db;
    for (Key k = 0; k < store.size(); ++k) {
        const Record &rec = store.at(k);
        if (!rec.volatileTs.isNone())
            db[k] = DurableRecord{rec.value, rec.volatileTs};
    }
    for (const Entry &e : entries_) {
        if (e.key == emptyKey)
            continue;
        if (e.ts.isNone())
            db.erase(e.key);
        else
            db[e.key] = DurableRecord{e.value, e.ts};
    }
    return db;
}

void
DurableState::insert(Key key, Value value, Timestamp ts)
{
    bool added = false;
    index_.insert(
        hash(key), isKey(key),
        [&] {
            std::uint32_t i = freeHead_;
            if (i == SlotIndex::none) {
                i = static_cast<std::uint32_t>(entries_.size());
                entries_.emplace_back();
            } else {
                freeHead_ = static_cast<std::uint32_t>(entries_[i].value);
            }
            entries_[i] = Entry{key, value, ts};
            return i;
        },
        added);
    peak_ = std::max(peak_, index_.size());
}

void
DurableState::erase(Key key)
{
    const std::uint32_t i = index_.erase(hash(key), isKey(key));
    entries_[i] = Entry{emptyKey, freeHead_, kv::Timestamp::none()};
    freeHead_ = i;
}

} // namespace minos::nvm
