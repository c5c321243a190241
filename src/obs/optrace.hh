/**
 * @file
 * Per-operation causal trace index: reconstructs the end-to-end
 * timeline of every coordinated write (client admit -> INV fan-out ->
 * per-follower apply/persist -> ACK gather -> VAL) from the flight
 * recorder's event stream.
 *
 * The index is a RecordSink, so it sees every record the engines emit
 * regardless of ring capacity or category muting — a violation found
 * near the end of a long run can still render the full history of the
 * offending operation even after the ring overwrote it.
 *
 * Operations are keyed by (key, packed TS_WR): a write timestamp alone
 * is *not* unique across keys (two keys written once by node 0 both
 * carry TS 1.0), which is also why the engines key their pending-write
 * tables by the same pair.
 */

#ifndef MINOS_OBS_OPTRACE_HH
#define MINOS_OBS_OPTRACE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/recorder.hh"

namespace minos::obs {

/** Identity of one coordinated write: (key, packed TS_WR). */
struct OpId
{
    std::int64_t key = 0;
    std::uint64_t ts = 0;

    bool
    operator==(const OpId &o) const
    {
        return key == o.key && ts == o.ts;
    }
};

struct OpIdHash
{
    std::size_t
    operator()(const OpId &id) const
    {
        // splitmix64-style finalizer over the xor of the halves.
        std::uint64_t x =
            static_cast<std::uint64_t>(id.key) * 0x9e3779b97f4a7c15ull ^
            id.ts;
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        return static_cast<std::size_t>(x);
    }
};

/**
 * Map a record to the write it belongs to: the one record-to-write
 * mapping of the op traces and the audit ledgers. Returns false for
 * records with no per-op identity (FIFO samples, phase spans — their
 * txn token lacks the key — scope-level messages, [PERSIST]sc and ops
 * that carry no TS).
 */
bool opIdOf(const Record &rec, OpId &out);

/**
 * RecordSink that groups protocol records by operation and renders
 * per-op timelines for AuditViolation reports.
 */
class OpTraceIndex : public RecordSink
{
  public:
    /** @param maxEventsPerOp retained records per op (rest counted). */
    explicit OpTraceIndex(std::size_t maxEventsPerOp = 48);

    void onRecord(const Record &rec) override;

    /** Number of distinct operations seen. */
    std::size_t ops() const { return ops_.size(); }

    /** True when at least one record was indexed under @p id. */
    bool knows(const OpId &id) const { return ops_.count(id) > 0; }

    /**
     * Render the causal timeline of @p id, one line per record in
     * arrival order. Empty string for an unknown op.
     */
    std::string render(const OpId &id) const;

  private:
    struct OpTrace
    {
        std::vector<Record> events;
        std::uint64_t total = 0; ///< including events beyond the cap
    };

    std::size_t maxEventsPerOp_;
    std::unordered_map<OpId, OpTrace, OpIdHash> ops_;
};

} // namespace minos::obs

#endif // MINOS_OBS_OPTRACE_HH
