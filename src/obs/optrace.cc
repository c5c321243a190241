#include "obs/optrace.hh"

#include <sstream>

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
// OpTraceIndex
// ---------------------------------------------------------------------

OpTraceIndex::OpTraceIndex(std::size_t maxEventsPerOp)
    : maxEventsPerOp_(maxEventsPerOp == 0 ? 1 : maxEventsPerOp)
{
}

void
OpTraceIndex::onRecord(const Record &rec)
{
    kv::WriteId id;
    if (opIdOf(rec, id))
        add(id, rec);
}

std::uint32_t
OpTraceIndex::allocChunk()
{
    std::uint32_t c = freeChunks_;
    if (c != noChunk) {
        freeChunks_ = arena_[c].next;
        arena_[c].next = noChunk;
    } else {
        c = static_cast<std::uint32_t>(arena_.size());
        arena_.emplace_back();
    }
    return c;
}

std::uint32_t
OpTraceIndex::add(const kv::WriteId &id, const Record &rec)
{
    bool added = false;
    const std::uint32_t slot = slots_.insert(id, added);
    if (added)
        traces_.emplace_back();
    OpTrace &t = traces_[slot];
    ++t.total;
    if (t.stage == Stage::Recycled)
        quiesce(slot);
    if (t.kept == maxEventsPerOp_)
        return slot;
    const std::size_t at = t.kept % chunkRecords;
    if (at == 0) {
        const std::uint32_t c = allocChunk();
        if (t.tail == noChunk)
            t.head = c;
        else
            arena_[t.tail].next = c;
        t.tail = c;
    }
    arena_[t.tail].recs[at] = rec;
    ++t.kept;
    if (++records_ > recordsPeak_)
        recordsPeak_ = records_;
    return slot;
}

void
OpTraceIndex::quiesce(std::uint32_t slot)
{
    OpTrace &t = traces_[slot];
    if (t.stage == Stage::Windowed)
        return;
    t.stage = Stage::Windowed;
    if (window_.size() < recycleWindow) {
        window_.push_back(slot);
        return;
    }
    recycle(window_[windowNext_]);
    window_[windowNext_] = slot;
    windowNext_ = (windowNext_ + 1) % recycleWindow;
}

void
OpTraceIndex::recycle(std::uint32_t slot)
{
    OpTrace &t = traces_[slot];
    if (t.tail != noChunk) {
        arena_[t.tail].next = freeChunks_;
        freeChunks_ = t.head;
    }
    t.head = t.tail = noChunk;
    t.recycled += t.kept;
    records_ -= t.kept;
    t.kept = 0;
    t.stage = Stage::Recycled;
}

std::string
OpTraceIndex::render(const kv::WriteId &id) const
{
    const std::uint32_t slot = slots_.find(id);
    if (slot == OpSlots::none)
        return "";
    const OpTrace &t = traces_[slot];
    std::ostringstream os;
    os << "op key=" << id.key << " ts=" << kv::Timestamp::unpack(id.ts)
       << " causal trace (" << t.total << " events):\n";
    if (t.recycled > 0)
        os << "  ... (" << t.recycled
           << " earlier records recycled after quiescence)\n";
    std::uint32_t left = t.kept;
    for (std::uint32_t c = t.head; left > 0; c = arena_[c].next) {
        for (std::size_t i = 0; i < chunkRecords && left > 0; ++i, --left)
            os << "  " << renderRecord(arena_[c].recs[i]) << '\n';
    }
    const std::uint64_t more = t.total - t.recycled - t.kept;
    if (more > 0)
        os << "  ... (+" << more << " more)\n";
    return os.str();
}

} // namespace minos::obs
