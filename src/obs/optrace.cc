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

OpTraceIndex::OpTraceIndex(std::size_t maxEventsPerOp)
    : maxEventsPerOp_(maxEventsPerOp == 0 ? 1 : maxEventsPerOp)
{
}

void
OpTraceIndex::onRecord(const Record &rec)
{
    OpId id;
    if (!opIdOf(rec, id))
        return;
    OpTrace &trace = ops_[id];
    ++trace.total;
    if (trace.events.size() < maxEventsPerOp_)
        trace.events.push_back(rec);
}

std::string
OpTraceIndex::render(const OpId &id) const
{
    auto it = ops_.find(id);
    if (it == ops_.end())
        return "";
    std::ostringstream os;
    os << "op key=" << id.key << " ts=" << kv::Timestamp::unpack(id.ts)
       << " causal trace (" << it->second.total << " events):\n";
    for (const Record &rec : it->second.events)
        os << "  " << renderRecord(rec) << '\n';
    if (it->second.total > it->second.events.size())
        os << "  ... (+"
           << it->second.total - it->second.events.size()
           << " more)\n";
    return os.str();
}

} // namespace minos::obs
