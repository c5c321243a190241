/**
 * @file
 * Per-operation causal trace index: reconstructs the end-to-end
 * timeline of every coordinated write (client admit -> INV fan-out ->
 * per-follower apply/persist -> ACK gather -> VAL) from the flight
 * recorder's event stream.
 *
 * The index is a RecordSink, so it sees every record the engines emit
 * regardless of ring capacity or category muting. Standalone it keeps
 * every op's records for the whole run. Under an AuditBundle it keeps
 * a recycle window instead: the bundle marks an op quiescent once its
 * protocol is complete (quiesce()), and the op's records are recycled
 * when recycleWindow later ops have gone quiescent too. A violation
 * raised on a live or recently quiescent op renders its full history,
 * even after the ring overwrote it; one raised on a recycled op
 * renders the records laid since, headed by a count of those recycled.
 *
 * Operations are keyed by kv::WriteId, (key, packed TS_WR), the same
 * write identity the engines key their pending-write tables by.
 */

#ifndef MINOS_OBS_OPTRACE_HH
#define MINOS_OBS_OPTRACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/slot_index.hh"
#include "kv/timestamp.hh"
#include "obs/recorder.hh"

namespace minos::obs {

/**
 * Map a record to the write it belongs to: the one record-to-write
 * mapping of the op traces and the audit ledgers. Returns false for
 * records with no per-op identity (FIFO samples, phase spans — their
 * txn token lacks the key — scope-level messages, [PERSIST]sc and ops
 * that carry no TS).
 */
bool opIdOf(const Record &rec, kv::WriteId &out);

/**
 * Map from a write to a dense slot number over the shared SlotIndex:
 * slots are handed out 0, 1, 2, ... in insertion order, so callers keep
 * per-op state in arrays indexed by slot. Entries are never erased.
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

    const kv::WriteId &id(std::uint32_t slot) const { return ids_[slot]; }
    std::size_t size() const { return ids_.size(); }

  private:
    SlotIndex index_;
    ChunkedArray<kv::WriteId> ids_;
};

/**
 * RecordSink that groups protocol records by operation and renders
 * per-op timelines for AuditViolation reports. Records live in a
 * chunked arena; the chunks of recycled ops go back to a free list.
 */
class OpTraceIndex : public RecordSink
{
  public:
    /** Quiescent ops whose records are kept (see quiesce()). */
    static constexpr std::size_t recycleWindow = 1024;

    /** @param maxEventsPerOp retained records per op (rest counted). */
    explicit OpTraceIndex(std::size_t maxEventsPerOp = 48);

    void onRecord(const Record &rec) override;

    /** Index @p rec under @p id; returns the op's slot for quiesce(). */
    std::uint32_t add(const kv::WriteId &id, const Record &rec);

    /**
     * The op in @p slot is quiescent: its records are recycled once
     * recycleWindow later ops are quiescent too. Later calls for the
     * same op are no-ops. A record added to a recycled op puts it back
     * in the window, so late records are kept for a while as well.
     */
    void quiesce(std::uint32_t slot);

    /** Number of distinct operations seen. */
    std::size_t ops() const { return slots_.size(); }

    /** True when at least one record was indexed under @p id. */
    bool knows(const kv::WriteId &id) const
    {
        return slots_.find(id) != OpSlots::none;
    }

    /** Records held at once, at most (a deterministic count). */
    std::uint64_t recordsPeak() const { return recordsPeak_; }

    /**
     * Render the causal timeline of @p id, one line per retained
     * record in arrival order. Empty string for an unknown op.
     */
    std::string render(const kv::WriteId &id) const;

  private:
    static constexpr std::size_t chunkRecords = 16;
    static constexpr std::uint32_t noChunk = ~std::uint32_t{0};

    struct Chunk
    {
        std::array<Record, chunkRecords> recs;
        std::uint32_t next = noChunk;
    };

    enum class Stage : std::uint8_t
    {
        Live,     ///< not yet quiescent
        Windowed, ///< quiescent, records kept
        Recycled, ///< records returned to the arena
    };

    struct OpTrace
    {
        std::uint32_t head = noChunk;
        std::uint32_t tail = noChunk;
        std::uint32_t kept = 0;     ///< records held in the chunks
        std::uint64_t total = 0;    ///< including dropped and recycled
        std::uint64_t recycled = 0; ///< records given back
        Stage stage = Stage::Live;
    };

    std::uint32_t allocChunk();
    void recycle(std::uint32_t slot);

    std::size_t maxEventsPerOp_;
    OpSlots slots_;
    ChunkedArray<OpTrace> traces_; ///< by slot
    ChunkedArray<Chunk, 64> arena_;
    std::uint32_t freeChunks_ = noChunk;
    /** Ring of the last recycleWindow quiescent ops, oldest at next. */
    std::vector<std::uint32_t> window_;
    std::size_t windowNext_ = 0;
    std::uint64_t records_ = 0;
    std::uint64_t recordsPeak_ = 0;
};

} // namespace minos::obs

#endif // MINOS_OBS_OPTRACE_HH
