#include "durable_state.hh"

#include <algorithm>
#include <bit>

namespace minos::nvm {

using kv::Key;
using kv::Record;
using kv::Timestamp;
using kv::Value;

void
DurableState::apply(Record &rec, Key key, Value value, Timestamp ts)
{
    const std::size_t i = find(key);
    if (i == noSlot) {
        // The durable state was the record's; keep it as the record
        // moves on.
        if (rec.volatileTs != ts || rec.value != value)
            insert(key, rec.value, rec.volatileTs);
    } else if (slots_[i].ts == ts && slots_[i].value == value) {
        erase(i); // the record caught up with a persist that led it
    }
    rec.value = value;
    rec.volatileTs = ts;
}

void
DurableState::persist(const Record &rec, Key key, Value value,
                      Timestamp ts)
{
    ++persists_;
    const std::size_t i = find(key);
    // A key never persisted has TS none, older than any update's.
    if (!(ts > (i == noSlot ? rec.volatileTs : slots_[i].ts)))
        return;
    if (ts == rec.volatileTs && value == rec.value) {
        if (i != noSlot)
            erase(i);
    } else if (i != noSlot) {
        slots_[i].value = value;
        slots_[i].ts = ts;
    } else {
        insert(key, value, ts);
    }
}

std::optional<DurableRecord>
DurableState::at(const Record &rec, Key key) const
{
    const std::size_t i = find(key);
    const Value value = i == noSlot ? rec.value : slots_[i].value;
    const Timestamp ts = i == noSlot ? rec.volatileTs : slots_[i].ts;
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
    for (const Slot &s : slots_) {
        if (s.key == emptyKey)
            continue;
        if (s.ts.isNone())
            db.erase(s.key);
        else
            db[s.key] = DurableRecord{s.value, s.ts};
    }
    return db;
}

std::size_t
DurableState::home(Key key) const
{
    // Fibonacci hashing: the top bits of key * 2^64/phi.
    const int shift = 64 - std::countr_zero(slots_.size());
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
}

std::size_t
DurableState::find(Key key) const
{
    if (used_ == 0)
        return noSlot;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
        if (slots_[i].key == key)
            return i;
        if (slots_[i].key == emptyKey)
            return noSlot;
    }
}

void
DurableState::insert(Key key, Value value, Timestamp ts)
{
    if (2 * (used_ + 1) > slots_.size()) {
        std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
        old.swap(slots_);
        used_ = 0;
        for (const Slot &s : old)
            if (s.key != emptyKey)
                insert(s.key, s.value, s.ts);
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key);
    while (slots_[i].key != emptyKey)
        i = (i + 1) & mask;
    slots_[i] = Slot{key, value, ts};
    ++used_;
    peak_ = std::max(peak_, used_);
}

void
DurableState::erase(std::size_t slot)
{
    // Backward-shift deletion: move up every later entry of the probe
    // run whose home does not lie in (slot, j], so no probe crosses a
    // hole.
    const std::size_t mask = slots_.size() - 1;
    std::size_t j = slot;
    for (;;) {
        j = (j + 1) & mask;
        if (slots_[j].key == emptyKey)
            break;
        const std::size_t h = home(slots_[j].key);
        if (((j - h) & mask) >= ((j - slot) & mask)) {
            slots_[slot] = slots_[j];
            slot = j;
        }
    }
    slots_[slot] = Slot{};
    --used_;
}

} // namespace minos::nvm
