#include "obs/optrace.hh"

#include <sstream>

#include "common/logging.hh"

namespace minos::obs {

// ---------------------------------------------------------------------
// TraceArena
// ---------------------------------------------------------------------

TraceArena::TraceArena(std::size_t maxEventsPerOp)
    : maxEventsPerOp_(maxEventsPerOp == 0 ? 1 : maxEventsPerOp)
{
}

std::uint32_t
TraceArena::allocChunk()
{
    std::uint32_t c = freeChunks_;
    if (c != OpTrace::noChunk) {
        freeChunks_ = chunks_[c].next;
        chunks_[c].next = OpTrace::noChunk;
    } else {
        c = static_cast<std::uint32_t>(chunks_.size());
        chunks_.emplace_back();
    }
    return c;
}

void
TraceArena::Entry::unpackable(const Record &rec)
{
    MINOS_PANIC("record does not pack under its write: ", renderRecord(rec));
}

Record
TraceArena::Entry::record(const kv::WriteId &id) const
{
    Record rec;
    rec.when = when;
    rec.a0 = static_cast<std::int64_t>(std::uint64_t{a0High} << 32 |
                                       (id.key & 0xffffffffu));
    rec.a1 = static_cast<std::int64_t>(id.ts);
    rec.node = node;
    rec.category = static_cast<Category>(kindCategory >> 5);
    rec.kind = static_cast<EventKind>(kindCategory & 31);
    rec.aux = aux;
    return rec;
}

void
TraceArena::release(OpTrace &t)
{
    if (t.tail != OpTrace::noChunk) {
        chunks_[t.tail].next = freeChunks_;
        freeChunks_ = t.head;
    }
    t.head = t.tail = OpTrace::noChunk;
    t.recycled += t.kept;
    records_ -= t.kept;
    t.kept = 0;
}

std::string
TraceArena::render(const kv::WriteId &id, const OpTrace &t) const
{
    std::ostringstream os;
    os << "op key=" << id.key << " ts=" << kv::Timestamp::unpack(id.ts)
       << " causal trace (" << t.total << " events):\n";
    if (t.recycled > 0)
        os << "  ... (" << t.recycled
           << " earlier records recycled after quiescence)\n";
    std::uint32_t left = t.kept;
    for (std::uint32_t c = t.head; left > 0; c = chunks_[c].next) {
        for (std::size_t i = 0; i < chunkRecords && left > 0; ++i, --left)
            os << "  " << renderRecord(chunks_[c].entries[i].record(id))
               << '\n';
    }
    const std::uint64_t more = t.total - t.recycled - t.kept;
    if (more > 0)
        os << "  ... (+" << more << " more)\n";
    return os.str();
}

// ---------------------------------------------------------------------
// OpTraceIndex
// ---------------------------------------------------------------------

OpTraceIndex::OpTraceIndex(std::size_t maxEventsPerOp)
    : arena_(maxEventsPerOp)
{
}

void
OpTraceIndex::onRecord(const Record &rec)
{
    kv::WriteId id;
    if (!opIdOf(rec, id))
        return;
    bool added = false;
    const std::uint32_t slot = slots_.insert(id, added);
    if (added)
        traces_.emplace_back();
    arena_.append(traces_[slot], id, rec);
}

std::string
OpTraceIndex::render(const kv::WriteId &id) const
{
    const std::uint32_t slot = slots_.find(id);
    return slot == OpSlots::none ? std::string()
                                 : arena_.render(id, traces_[slot]);
}

} // namespace minos::obs
