/**
 * @file
 * Structured flight recorder: a fixed-capacity ring of typed, binary
 * protocol-event records.
 *
 * Replaces the old string-per-event sim::TraceLog. Every record is a
 * small POD (tick, category, node, event kind, two integer arguments),
 * so the record path never touches the allocator and never formats
 * text. Rendering happens only at export time: the same ring serves
 * the chronological text dump (str()) and the Chrome trace-event JSON
 * exporter (chrome_trace.hh).
 *
 * Enablement contract (see docs/observability.md): record() checks the
 * category's enabled bit before touching the ring, and the arguments
 * are plain integers, so a disabled category costs one load + branch —
 * no formatting, no allocation. Detached (the engines' default), the
 * record path is a null-pointer check at the call site.
 */

#ifndef MINOS_OBS_RECORDER_HH
#define MINOS_OBS_RECORDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"
#include "net/message.hh"

namespace minos::obs {

/** Event categories, individually toggleable. */
enum class Category : std::uint8_t
{
    Protocol, ///< coordinator/follower algorithm steps
    Message,  ///< sends and receipts
    Lock,     ///< RDLock/WRLock transitions
    Fifo,     ///< vFIFO/dFIFO activity and occupancy samples
    Recovery, ///< membership and log shipping
    Phase,    ///< per-transaction phase spans (begin/end)
};

inline constexpr int numCategories = 6;

/** Human-readable category name. */
const char *categoryName(Category cat);

/**
 * Parse a category name ("protocol", "lock", ...) as printed by
 * categoryName(). Returns false on an unknown name.
 */
bool categoryFromName(const std::string &name, Category &out);

/**
 * What happened. The two integer arguments (a0, a1) are interpreted
 * per kind; see renderRecord() for the exact meanings.
 */
enum class EventKind : std::uint8_t
{
    InvFanout,        ///< coordinator sent INVs; a0=key, a1=packed TS_WR
    InvApplied,       ///< follower applied an INV; a0=key, a1=packed TS_WR
    InvObsolete,      ///< INV cut short as obsolete; a0=key, a1=packed TS_WR
    RdLockReleased,   ///< RDLock released; a0=key, a1=packed owner TS
    SnicBroadcastInv, ///< coordinator SNIC broadcast; a0=key, a1=packed TS_WR
    FollowerEnqueued, ///< follower SNIC vFIFO enqueue; a0=key, a1=entry id
    VfifoSkipped,     ///< drain skipped obsolete entry; a0=entry id, a1=packed TS
    FifoDepth,        ///< occupancy sample; a0=0 (vFIFO) / 1 (dFIFO), a1=depth
    SpanBegin,        ///< phase span begins; a0=phase, a1=txn token
    SpanEnd,          ///< phase span ends; a0=phase, a1=txn token
    AckReceived,      ///< coordinator got an ACK; a0=key (scope acks:
                      ///< scope id), a1=packed TS_WR (scope acks: 0),
                      ///< aux=ackAux(type, sender)
    PersistDone,      ///< one record became durable at this node
                      ///< (NVM append on B, dFIFO enqueue on O);
                      ///< a0=key, a1=packed TS_WR
    ValSent,          ///< coordinator sent VALs; a0=key (VAL_P_SC:
                      ///< scope id), a1=packed TS_WR (VAL_P_SC: 0),
                      ///< aux=valAux(type)
    ClientOpBegin,    ///< client op admitted; a0=key ([PERSIST]sc:
                      ///< scope id), a1=packed TS_WR (reads/persist:
                      ///< 0), aux=opAux(type, false)
    ClientOpEnd,      ///< client op returned; a0=key ([PERSIST]sc:
                      ///< scope id), a1=packed TS_WR (reads: observed
                      ///< TS), aux=opAux(type, obsolete)
    GlbRaised,        ///< glb_volatileTS/glb_durableTS advanced past
                      ///< this write; a0=key, a1=packed TS_WR,
                      ///< aux=0 volatile / 1 durable
    ScopeMark,        ///< write tagged into a scope; a0=(scope<<32)|key,
                      ///< a1=packed TS_WR
    AckSent,          ///< follower dispatched an ACK; a0=key (scope
                      ///< acks: scope id), a1=packed TS_WR (scope
                      ///< acks: 0), aux=ackAux(type, sender=self).
                      ///< Laid at the send decision so auditors can
                      ///< check what the sender certified *then* (its
                      ///< own durability), which receipt-time records
                      ///< cannot distinguish once the persist races
                      ///< the network transit.
};

/** Human-readable event-kind name (also the Chrome trace event name). */
const char *eventKindName(EventKind kind);

/** Client operation type in ClientOpBegin/End aux. */
enum class OpType : std::uint8_t
{
    Write,
    Read,
    PersistSc, ///< the <Lin, Scope> [PERSIST]sc transaction
};

/** Pack an AckSent/AckReceived aux: low byte the ACK's message type,
 *  high byte sender + 1. */
constexpr std::uint16_t
ackAux(net::MsgType type, std::int32_t sender)
{
    return static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(type) |
        (static_cast<std::uint16_t>(sender + 1) << 8));
}

/** Sender node encoded by ackAux(), or -1 when absent. */
constexpr std::int32_t
ackSender(std::uint16_t aux)
{
    return static_cast<std::int32_t>(aux >> 8) - 1;
}

/** ACK message type encoded by ackAux(). */
constexpr net::MsgType
ackType(std::uint16_t aux)
{
    return static_cast<net::MsgType>(aux & 0xff);
}

/** Pack a ValSent aux: the VAL's message type. */
constexpr std::uint16_t
valAux(net::MsgType type)
{
    return static_cast<std::uint16_t>(type);
}

/** VAL message type encoded by valAux(). */
constexpr net::MsgType
valType(std::uint16_t aux)
{
    return static_cast<net::MsgType>(aux);
}

/** Pack a ClientOpBegin/End aux: low byte type, bit 8 obsolete. */
constexpr std::uint16_t
opAux(OpType type, bool obsolete)
{
    return static_cast<std::uint16_t>(static_cast<std::uint16_t>(type) |
                                      (obsolete ? 0x100u : 0u));
}

constexpr OpType
opType(std::uint16_t aux)
{
    return static_cast<OpType>(aux & 0xff);
}

constexpr bool
opObsolete(std::uint16_t aux)
{
    return (aux & 0x100u) != 0;
}

/** One recorded event: 32 bytes, trivially copyable, no heap. */
struct Record
{
    Tick when = 0;
    std::int64_t a0 = 0;
    std::int64_t a1 = 0;
    std::int32_t node = -1;
    Category category = Category::Protocol;
    EventKind kind = EventKind::InvFanout;
    /** Per-kind extra payload (ACK/VAL message type, op type); 0
     *  otherwise. */
    std::uint16_t aux = 0;
};

static_assert(sizeof(Record) == 32, "Record must stay one 32-byte slot");

/**
 * Live observer of the record stream. Sinks see *every* record built,
 * regardless of the per-category ring-retention bits: category
 * enablement controls what the ring keeps for export, sinks are the
 * audit bus (obs/audit.hh) and must not lose events to a muted
 * category.
 */
class RecordSink
{
  public:
    virtual ~RecordSink() = default;
    virtual void onRecord(const Record &rec) = 0;
};

/** Render one record as text ("INV fan-out key=7 ts=3.1" style). */
std::string renderRecord(const Record &rec);

/** Fixed-capacity ring of typed records; oldest are overwritten. */
class FlightRecorder
{
  public:
    /** @param capacity ring size (clamped to >= 1). */
    explicit FlightRecorder(std::size_t capacity = 1 << 15);

    /** Enable/disable one category (all enabled by default). */
    void setEnabled(Category cat, bool enabled);

    bool
    enabled(Category cat) const
    {
        return enabled_[static_cast<int>(cat)];
    }

    /**
     * Attach a live observer. Sinks receive every record regardless of
     * category enablement (which only governs ring retention). Not
     * owned; detach before the sink dies.
     */
    void addSink(RecordSink *sink);

    /** Detach a previously added sink (no-op when absent). */
    void removeSink(RecordSink *sink);

    /**
     * Record one event. With no sinks attached, the enabled check is
     * the first thing that happens — a disabled category pays nothing
     * beyond it — and the write is a POD store into the preallocated
     * ring (zero allocation). Attached sinks additionally see the
     * record synchronously.
     */
    void
    record(Tick when, Category cat, EventKind kind, std::int32_t node,
           std::int64_t a0 = 0, std::int64_t a1 = 0,
           std::uint16_t aux = 0)
    {
        const bool keep = enabled_[static_cast<int>(cat)];
        if (!keep && sinks_.empty())
            return;
        const Record rec{when, a0, a1, node, cat, kind, aux};
        if (keep) {
            ring_[next_] = rec;
            if (++next_ == ring_.size())
                next_ = 0;
            if (used_ < ring_.size())
                ++used_;
            ++recorded_;
        }
        for (RecordSink *sink : sinks_)
            sink->onRecord(rec);
    }

    /**
     * Events currently retained, in record order (which is
     * chronological except for retroactively-laid SpanBegin records —
     * exporters stable-sort by tick).
     */
    std::vector<Record> snapshot() const;

    /** Tick-ordered snapshot (stable: record order breaks ties). */
    std::vector<Record> sortedSnapshot() const;

    /** Render the tick-ordered snapshot as one text line per event. */
    std::string str() const;

    /** Total events ever recorded (including overwritten ones). */
    std::uint64_t recorded() const { return recorded_; }

    /** Events lost to ring overwrite. */
    std::uint64_t
    dropped() const
    {
        return recorded_ - used_;
    }

    std::size_t capacity() const { return ring_.size(); }

    void clear();

  private:
    std::vector<Record> ring_;
    std::vector<RecordSink *> sinks_;
    std::size_t next_ = 0;
    std::size_t used_ = 0;
    std::uint64_t recorded_ = 0;
    bool enabled_[numCategories];
};

} // namespace minos::obs

#endif // MINOS_OBS_RECORDER_HH
