/**
 * @file
 * Per-operation causal trace index: reconstructs the end-to-end
 * timeline of every coordinated write (client admit -> INV fan-out ->
 * per-follower apply/persist -> ACK gather -> VAL) from the flight
 * recorder's event stream.
 *
 * The index is a RecordSink, so it sees every record the engines emit
 * regardless of ring capacity or category muting, and it keeps every
 * op's records for the whole run. The AuditBundle's OpTable
 * (obs/audit.hh) keeps its traces in the same TraceArena but recycles
 * them: a violation raised on a live or recently quiescent op renders
 * its full history, even after the ring overwrote it; one raised on a
 * recycled op renders the records laid since, headed by a count of
 * those recycled.
 *
 * Operations are keyed by kv::WriteId, (key, packed TS_WR), the same
 * write identity the engines key their pending-write tables by.
 */

#ifndef MINOS_OBS_OPTRACE_HH
#define MINOS_OBS_OPTRACE_HH

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "common/slot_index.hh"
#include "kv/timestamp.hh"
#include "obs/recorder.hh"

namespace minos::obs {

/** A set of record kinds: bit k for EventKind k. */
using KindSet = std::uint32_t;

constexpr KindSet
kindSet(std::initializer_list<EventKind> kinds)
{
    KindSet set = 0;
    for (EventKind k : kinds)
        set |= KindSet{1} << static_cast<unsigned>(k);
    return set;
}

constexpr bool
inKinds(KindSet set, EventKind kind)
{
    return ((set >> static_cast<unsigned>(kind)) & 1) != 0;
}

/**
 * Map a record to the write it belongs to: the one record-to-write
 * mapping of the op traces and the audit ledgers. Returns false for
 * records with no per-op identity (FIFO samples, phase spans — their
 * txn token lacks the key — scope-level messages, [PERSIST]sc and ops
 * that carry no TS).
 *
 * @p kind is @p rec's kind, passed apart so that a caller that knows it
 * at compile time (AuditBundle's per-kind routes) folds the switch.
 */
inline bool
opIdOf(EventKind kind, const Record &rec, kv::WriteId &out)
{
    auto key = static_cast<kv::Key>(rec.a0);
    switch (kind) {
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

inline bool
opIdOf(const Record &rec, kv::WriteId &out)
{
    return opIdOf(rec.kind, rec, out);
}

/** The kinds opIdOf() can map to a write; it returns false for every
 *  other kind. */
inline constexpr KindSet opKeyedKinds =
    ~kindSet({EventKind::FollowerEnqueued, EventKind::VfifoSkipped,
              EventKind::FifoDepth, EventKind::SpanBegin,
              EventKind::SpanEnd});

/**
 * Map from a write to a dense slot number over the shared SlotIndex:
 * slots are handed out 0, 1, 2, ... in insertion order, so callers keep
 * per-op state in arrays indexed by slot. A write keeps its slot unless
 * moveToEnd() gives it a new one; no write is erased.
 */
class OpSlots
{
  public:
    static constexpr std::uint32_t none = SlotIndex::none;

    /** Slot of @p id, adding the next slot when absent (@p added). */
    std::uint32_t
    insert(const kv::WriteId &id, bool &added)
    {
        return index_.insert(
            id.hash(), [&](std::uint32_t s) { return ids_[s] == id; },
            [&] {
                ids_.emplace_back() = id;
                return static_cast<std::uint32_t>(ids_.size() - 1);
            },
            added);
    }

    /** Slot of @p id, or none. */
    std::uint32_t
    find(const kv::WriteId &id) const
    {
        return index_.find(id.hash(),
                           [&](std::uint32_t s) { return ids_[s] == id; });
    }

    /** Give @p id, already present, the next slot; the old slot keeps
     *  its id but is no longer found. Returns the new slot. */
    std::uint32_t
    moveToEnd(const kv::WriteId &id)
    {
        index_.erase(id.hash(),
                     [&](std::uint32_t s) { return ids_[s] == id; });
        bool added = false;
        return insert(id, added);
    }

    const kv::WriteId &id(std::uint32_t slot) const { return ids_[slot]; }
    /** Distinct writes. */
    std::size_t size() const { return index_.size(); }
    /** Slots handed out, the ones moveToEnd() left behind included. */
    std::size_t slots() const { return ids_.size(); }

  private:
    SlotIndex index_;
    ChunkedArray<kv::WriteId> ids_;
};

/** One op's trace: its kept records, a chain of arena chunks, and
 *  the counts of those it dropped or gave back. */
struct OpTrace
{
    static constexpr std::uint32_t noChunk = ~std::uint32_t{0};

    std::uint32_t head = noChunk;
    std::uint32_t tail = noChunk;
    std::uint32_t kept = 0;     ///< records held in the chunks
    std::uint64_t total = 0;    ///< including dropped and recycled
    std::uint64_t recycled = 0; ///< records given back
};

/**
 * The records of many op traces, in 16-record chunks of one arena; the
 * chunks of released traces go back to a free list. OpTraceIndex and
 * the audit's OpTable keep their records here.
 *
 * A record is kept as a 16-byte Entry, half a Record: its op's
 * kv::WriteId gives back the rest, since opIdOf() takes the id's TS_WR
 * from a1 and its key from a0 (a ScopeMark's from a0's low word).
 */
class TraceArena
{
  public:
    /** @param maxEventsPerOp retained records per op (rest counted). */
    explicit TraceArena(std::size_t maxEventsPerOp);

    /** Count @p rec, a record of the write @p id (opIdOf), in @p t,
     *  and keep it while @p t has room. */
    inline void append(OpTrace &t, const kv::WriteId &id,
                       const Record &rec);

    /** Give @p t's kept records back, counting them as recycled. */
    void release(OpTrace &t);

    /** Records held at once, at most (a deterministic count). */
    std::uint64_t recordsPeak() const { return recordsPeak_; }

    /** Render @p t, the trace of @p id: one line per kept record. */
    std::string render(const kv::WriteId &id, const OpTrace &t) const;

  private:
    static constexpr std::size_t chunkRecords = 16;

    /** A kept record less its write's id: a0's high word (a
     *  ScopeMark's scope) and what the id does not hold. */
    struct Entry
    {
        Tick when = 0;
        std::uint32_t a0High = 0;
        std::uint16_t aux = 0;
        std::int8_t node = -1;
        std::uint8_t kindCategory = 0; ///< kind, then category << 5

        static Entry of(const kv::WriteId &id, const Record &rec);
        Record record(const kv::WriteId &id) const;
        /** Panic: @p rec does not pack under the write it is filed
         *  by. */
        [[noreturn, gnu::cold]] static void unpackable(const Record &rec);
    };
    static_assert(sizeof(Entry) == 16, "a kept record is 16 bytes");

    /** The link first: a chunk taken off the free list is written in
     *  the line its link was read from. */
    struct Chunk
    {
        std::uint32_t next = OpTrace::noChunk;
        std::array<Entry, chunkRecords> entries;
    };

    std::uint32_t allocChunk();

    std::size_t maxEventsPerOp_;
    ChunkedArray<Chunk, 64> chunks_;
    std::uint32_t freeChunks_ = OpTrace::noChunk;
    std::uint64_t records_ = 0;
    std::uint64_t recordsPeak_ = 0;
};

inline TraceArena::Entry
TraceArena::Entry::of(const kv::WriteId &id, const Record &rec)
{
    const auto a0 = static_cast<std::uint64_t>(rec.a0);
    const auto kind = static_cast<unsigned>(rec.kind);
    const auto category = static_cast<unsigned>(rec.category);
    if (static_cast<std::uint64_t>(rec.a1) != id.ts ||
        static_cast<std::uint32_t>(a0) != static_cast<std::uint32_t>(id.key) ||
        rec.node < -128 || rec.node > 127 || kind >= 32 || category >= 8)
        [[unlikely]]
        unpackable(rec);
    Entry e;
    e.when = rec.when;
    e.a0High = static_cast<std::uint32_t>(a0 >> 32);
    e.aux = rec.aux;
    e.node = static_cast<std::int8_t>(rec.node);
    e.kindCategory = static_cast<std::uint8_t>(kind | category << 5);
    return e;
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

/**
 * RecordSink that groups protocol records by operation and renders
 * per-op timelines for AuditViolation reports. It keeps every op's
 * records for the whole run; the AuditBundle keeps its traces in its
 * OpTable (obs/audit.hh) instead, which recycles them.
 */
class OpTraceIndex : public RecordSink
{
  public:
    /** @param maxEventsPerOp retained records per op (rest counted). */
    explicit OpTraceIndex(std::size_t maxEventsPerOp = 48);

    void onRecord(const Record &rec) override;

    /** Number of distinct operations seen. */
    std::size_t ops() const { return slots_.size(); }

    /** True when at least one record was indexed under @p id. */
    bool knows(const kv::WriteId &id) const
    {
        return slots_.find(id) != OpSlots::none;
    }

    /** Records held at once, at most (a deterministic count). */
    std::uint64_t recordsPeak() const { return arena_.recordsPeak(); }

    /**
     * Render the causal timeline of @p id, one line per retained
     * record in arrival order. Empty string for an unknown op.
     */
    std::string render(const kv::WriteId &id) const;

  private:
    OpSlots slots_;
    ChunkedArray<OpTrace> traces_; ///< by slot
    TraceArena arena_;
};

} // namespace minos::obs

#endif // MINOS_OBS_OPTRACE_HH
