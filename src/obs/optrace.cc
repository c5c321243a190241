#include "obs/optrace.hh"

#include <sstream>

#include "common/logging.hh"

namespace minos::obs {

bool
opIdOf(const Record &rec, kv::WriteId &out)
{
    auto key = static_cast<kv::Key>(rec.a0);
    switch (rec.kind) {
      case EventKind::InvFanout:
      case EventKind::InvApplied:
      case EventKind::InvObsolete:
      case EventKind::RdLockReleased:
      case EventKind::SnicBroadcastInv:
      case EventKind::PersistDone:
      case EventKind::GlbRaised:
        break;
      case EventKind::AckReceived:
      case EventKind::AckSent:
        if (ackType(rec.aux) == net::MsgType::ACK_P_SC)
            return false;
        break;
      case EventKind::ValSent:
        if (valType(rec.aux) == net::MsgType::VAL_P_SC)
            return false;
        break;
      case EventKind::ClientOpBegin:
      case EventKind::ClientOpEnd:
        // Writes (and reads that observed a version) join the written
        // op's timeline; [PERSIST]sc and unresolved reads have no TS.
        if (opType(rec.aux) == OpType::PersistSc)
            return false;
        break;
      case EventKind::ScopeMark: // a0 = (scope << 32) | key
        key &= 0xffffffff;
        break;
      case EventKind::FollowerEnqueued:
      case EventKind::VfifoSkipped:
      case EventKind::FifoDepth:
      case EventKind::SpanBegin:
      case EventKind::SpanEnd:
        return false;
    }
    out = {key, static_cast<std::uint64_t>(rec.a1)};
    return rec.a1 != 0;
}

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

TraceArena::Entry
TraceArena::Entry::of(const kv::WriteId &id, const Record &rec)
{
    const auto a0 = static_cast<std::uint64_t>(rec.a0);
    const auto kind = static_cast<unsigned>(rec.kind);
    const auto category = static_cast<unsigned>(rec.category);
    MINOS_ASSERT(static_cast<std::uint64_t>(rec.a1) == id.ts &&
                     static_cast<std::uint32_t>(a0) ==
                         static_cast<std::uint32_t>(id.key) &&
                     rec.node >= -128 && rec.node <= 127 && kind < 32 &&
                     category < 8,
                 "record does not pack under its write: ",
                 renderRecord(rec));
    Entry e;
    e.when = rec.when;
    e.a0High = static_cast<std::uint32_t>(a0 >> 32);
    e.aux = rec.aux;
    e.node = static_cast<std::int8_t>(rec.node);
    e.kindCategory = static_cast<std::uint8_t>(kind | category << 5);
    return e;
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
TraceArena::append(OpTrace &t, const kv::WriteId &id, const Record &rec)
{
    ++t.total;
    if (t.kept == maxEventsPerOp_)
        return;
    const std::size_t at = t.kept % chunkRecords;
    if (at == 0) {
        const std::uint32_t c = allocChunk();
        if (t.tail == OpTrace::noChunk)
            t.head = c;
        else
            chunks_[t.tail].next = c;
        t.tail = c;
    }
    chunks_[t.tail].entries[at] = Entry::of(id, rec);
    ++t.kept;
    if (++records_ > recordsPeak_)
        recordsPeak_ = records_;
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
