#include "obs/optrace.hh"

#include <sstream>

#include "kv/timestamp.hh"

namespace minos::obs {

bool
opIdOf(const Record &rec, OpId &out)
{
    switch (rec.kind) {
      case EventKind::InvFanout:
      case EventKind::InvApplied:
      case EventKind::InvObsolete:
      case EventKind::RdLockReleased:
      case EventKind::SnicBroadcastInv:
      case EventKind::PersistDone:
      case EventKind::GlbRaised:
        out = {rec.a0, static_cast<std::uint64_t>(rec.a1)};
        return rec.a1 != 0;
      case EventKind::AckReceived:
      case EventKind::AckSent:
        if (ackFlavor(rec.aux) == AckFlavor::ScopePersist)
            return false;
        out = {rec.a0, static_cast<std::uint64_t>(rec.a1)};
        return rec.a1 != 0;
      case EventKind::ValSent:
        if (static_cast<ValFlavor>(rec.aux) == ValFlavor::ValPSc)
            return false;
        out = {rec.a0, static_cast<std::uint64_t>(rec.a1)};
        return rec.a1 != 0;
      case EventKind::ClientOpBegin:
      case EventKind::ClientOpEnd:
        // Writes (and reads that observed a version) join the written
        // op's timeline; [PERSIST]sc and unresolved reads have no TS.
        if (opType(rec.aux) == OpType::PersistSc)
            return false;
        out = {rec.a0, static_cast<std::uint64_t>(rec.a1)};
        return rec.a1 != 0;
      case EventKind::ScopeMark:
        out = {rec.a0 & 0xffffffff,
               static_cast<std::uint64_t>(rec.a1)};
        return rec.a1 != 0;
      case EventKind::FollowerEnqueued:
      case EventKind::VfifoSkipped:
      case EventKind::FifoDepth:
      case EventKind::SpanBegin:
      case EventKind::SpanEnd:
        return false;
    }
    return false;
}

// ---------------------------------------------------------------------
// OpSlots
// ---------------------------------------------------------------------

std::uint32_t
OpSlots::hashOf(const OpId &id)
{
    std::uint64_t x =
        static_cast<std::uint64_t>(id.key) * 0x9E3779B97F4A7C15ull ^ id.ts;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return static_cast<std::uint32_t>(x ^ (x >> 31));
}

std::size_t
OpSlots::probe(const OpId &id, std::uint32_t h) const
{
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
        const std::uint64_t e = index_[i];
        if (e == 0 || (static_cast<std::uint32_t>(e >> 32) == h &&
                       ids_[static_cast<std::uint32_t>(e) - 1] == id))
            return i;
    }
}

std::uint32_t
OpSlots::find(const OpId &id) const
{
    if (index_.empty())
        return none;
    const std::uint64_t e = index_[probe(id, hashOf(id))];
    return e == 0 ? none : static_cast<std::uint32_t>(e) - 1;
}

std::uint32_t
OpSlots::insert(const OpId &id, bool &added)
{
    if (index_.empty())
        index_.assign(64, 0);
    const std::uint32_t h = hashOf(id);
    const std::size_t pos = probe(id, h);
    added = index_[pos] == 0;
    if (!added)
        return static_cast<std::uint32_t>(index_[pos]) - 1;
    const auto slot = static_cast<std::uint32_t>(ids_.size());
    ids_.emplace_back() = id;
    index_[pos] = (std::uint64_t{h} << 32) | (slot + 1);
    if (ids_.size() > index_.size() / 4 * 3)
        grow();
    return slot;
}

void
OpSlots::grow()
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
    OpId id;
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
OpTraceIndex::add(const OpId &id, const Record &rec)
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
OpTraceIndex::render(const OpId &id) const
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
