#include "obs/recorder.hh"

#include <algorithm>
#include <sstream>

#include "kv/timestamp.hh"
#include "obs/phase.hh"

namespace minos::obs {

const char *
categoryName(Category cat)
{
    switch (cat) {
      case Category::Protocol:
        return "protocol";
      case Category::Message:
        return "message";
      case Category::Lock:
        return "lock";
      case Category::Fifo:
        return "fifo";
      case Category::Recovery:
        return "recovery";
      case Category::Phase:
        return "phase";
    }
    return "?";
}

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::InvFanout:
        return "INV fan-out";
      case EventKind::InvApplied:
        return "INV applied";
      case EventKind::InvObsolete:
        return "INV obsolete";
      case EventKind::RdLockReleased:
        return "RDLock released";
      case EventKind::SnicBroadcastInv:
        return "SNIC broadcast INV";
      case EventKind::FollowerEnqueued:
        return "follower enqueued";
      case EventKind::VfifoSkipped:
        return "vFIFO skipped";
      case EventKind::FifoDepth:
        return "FIFO depth";
      case EventKind::SpanBegin:
        return "span begin";
      case EventKind::SpanEnd:
        return "span end";
      case EventKind::AckReceived:
        return "ACK received";
      case EventKind::AckSent:
        return "ACK sent";
      case EventKind::PersistDone:
        return "persist done";
      case EventKind::ValSent:
        return "VAL sent";
      case EventKind::ClientOpBegin:
        return "client op begin";
      case EventKind::ClientOpEnd:
        return "client op end";
      case EventKind::GlbRaised:
        return "glb raised";
      case EventKind::ScopeMark:
        return "scope mark";
    }
    return "?";
}

bool
categoryFromName(const std::string &name, Category &out)
{
    for (int i = 0; i < numCategories; ++i) {
        Category cat = static_cast<Category>(i);
        if (name == categoryName(cat)) {
            out = cat;
            return true;
        }
    }
    return false;
}

namespace {

std::string
tsArg(std::int64_t packed)
{
    std::ostringstream os;
    os << kv::Timestamp::unpack(static_cast<std::uint64_t>(packed));
    return os.str();
}

const char *
opTypeName(OpType t)
{
    switch (t) {
      case OpType::Write:
        return "write";
      case OpType::Read:
        return "read";
      case OpType::PersistSc:
        return "[PERSIST]sc";
    }
    return "?";
}

} // namespace

std::string
renderRecord(const Record &rec)
{
    std::ostringstream os;
    os << rec.when << "ns [" << categoryName(rec.category) << "] node "
       << rec.node << ": ";
    switch (rec.kind) {
      case EventKind::InvFanout:
      case EventKind::InvApplied:
      case EventKind::InvObsolete:
      case EventKind::SnicBroadcastInv:
        os << eventKindName(rec.kind) << " key=" << rec.a0
           << " ts=" << tsArg(rec.a1);
        break;
      case EventKind::RdLockReleased:
        os << "RDLock released key=" << rec.a0
           << " owner=" << tsArg(rec.a1);
        break;
      case EventKind::FollowerEnqueued:
        os << "follower enqueued key=" << rec.a0 << " entry=" << rec.a1;
        break;
      case EventKind::VfifoSkipped:
        os << "vFIFO skipped entry=" << rec.a0
           << " ts=" << tsArg(rec.a1);
        break;
      case EventKind::FifoDepth:
        os << (rec.a0 == 0 ? "vFIFO" : "dFIFO")
           << " depth=" << rec.a1;
        break;
      case EventKind::SpanBegin:
      case EventKind::SpanEnd:
        os << eventKindName(rec.kind) << " "
           << phaseName(static_cast<Phase>(rec.a0))
           << " txn=" << tsArg(rec.a1);
        break;
      case EventKind::AckReceived:
      case EventKind::AckSent:
        os << net::msgTypeName(ackType(rec.aux))
           << (rec.kind == EventKind::AckSent ? " sent by "
                                              : " received from ")
           << ackSender(rec.aux);
        if (ackType(rec.aux) == net::MsgType::ACK_P_SC)
            os << " scope=" << rec.a0;
        else
            os << " key=" << rec.a0 << " ts=" << tsArg(rec.a1);
        break;
      case EventKind::PersistDone:
        os << "persist done key=" << rec.a0 << " ts=" << tsArg(rec.a1);
        break;
      case EventKind::ValSent:
        os << net::msgTypeName(valType(rec.aux)) << " sent";
        if (valType(rec.aux) == net::MsgType::VAL_P_SC)
            os << " scope=" << rec.a0;
        else
            os << " key=" << rec.a0 << " ts=" << tsArg(rec.a1);
        break;
      case EventKind::ClientOpBegin:
      case EventKind::ClientOpEnd:
        os << opTypeName(opType(rec.aux)) << " "
           << (rec.kind == EventKind::ClientOpBegin ? "begin" : "end");
        if (opType(rec.aux) == OpType::PersistSc)
            os << " scope=" << rec.a0;
        else
            os << " key=" << rec.a0;
        if (rec.a1 != 0)
            os << " ts=" << tsArg(rec.a1);
        if (opObsolete(rec.aux))
            os << " (obsolete)";
        break;
      case EventKind::GlbRaised:
        os << (rec.aux == 0 ? "glb_volatileTS" : "glb_durableTS")
           << " raised key=" << rec.a0 << " ts=" << tsArg(rec.a1);
        break;
      case EventKind::ScopeMark:
        os << "scope mark scope="
           << (static_cast<std::uint64_t>(rec.a0) >> 32)
           << " key=" << (rec.a0 & 0xffffffff)
           << " ts=" << tsArg(rec.a1);
        break;
    }
    return os.str();
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1))
{
    for (bool &b : enabled_)
        b = true;
}

void
FlightRecorder::setEnabled(Category cat, bool enabled)
{
    enabled_[static_cast<int>(cat)] = enabled;
}

void
FlightRecorder::addSink(RecordSink *sink)
{
    if (sink)
        sinks_.push_back(sink);
}

void
FlightRecorder::removeSink(RecordSink *sink)
{
    sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink),
                 sinks_.end());
}

std::vector<Record>
FlightRecorder::snapshot() const
{
    std::vector<Record> out;
    out.reserve(used_);
    // When the ring has wrapped, the oldest retained record sits at
    // next_; otherwise the ring starts at slot 0.
    std::size_t start = (used_ == ring_.size()) ? next_ : 0;
    for (std::size_t i = 0; i < used_; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

std::vector<Record>
FlightRecorder::sortedSnapshot() const
{
    std::vector<Record> out = snapshot();
    std::stable_sort(out.begin(), out.end(),
                     [](const Record &a, const Record &b) {
                         return a.when < b.when;
                     });
    return out;
}

std::string
FlightRecorder::str() const
{
    std::string out;
    for (const Record &rec : sortedSnapshot()) {
        out += renderRecord(rec);
        out += '\n';
    }
    return out;
}

void
FlightRecorder::clear()
{
    next_ = 0;
    used_ = 0;
    recorded_ = 0;
}

} // namespace minos::obs
