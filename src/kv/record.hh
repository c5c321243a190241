/**
 * @file
 * Per-record metadata of the MINOS-KV store (Figure 1(a) of the paper).
 *
 * Each record carries:
 *  - RDLock_Owner: timestamp of the youngest ongoing client-write, or
 *    <-1,-1> when free. Taken RDLock blocks reads; a younger client-write
 *    may "snatch" it.
 *  - volatileTS: version of the local volatile copy.
 *  - glb_volatileTS: version known updated in volatile memory on ALL
 *    replicas (set once consistency completes cluster-wide).
 *  - glb_durableTS: version known persisted on ALL replicas (set once
 *    persistency completes cluster-wide).
 *
 * The paper's fifth field, the WRLock guarding local-writes to the
 * volatile copy, is MINOS-B state: simproto::NodeB holds it as a per-key
 * bitmap (MINOS-O replaces it with the vFIFO, paper §V). Leaving it out
 * keeps a record at 24 bytes: four 4-byte timestamps and the value.
 *
 * The threaded runtime keeps the same fields, WRLock included, as
 * individual atomics (AtomicRecord), so it can express the paper's
 * lock-free operations with compare-and-swap.
 */

#ifndef MINOS_KV_RECORD_HH
#define MINOS_KV_RECORD_HH

#include <atomic>
#include <cstdint>

#include "kv/timestamp.hh"

namespace minos::kv {

/** Abstract record value: a 64-bit token standing in for the 1KB blob. */
using Value = std::uint64_t;

/**
 * Plain (non-atomic) record metadata plus value, used by the
 * discrete-event models where interleaving happens only at co_await
 * points.
 */
struct Record
{
    Timestamp rdLockOwner = Timestamp::none();
    Timestamp volatileTs = Timestamp::none();
    Timestamp glbVolatileTs = Timestamp::none();
    Timestamp glbDurableTs = Timestamp::none();
    Value value = 0;

    bool rdLockFree() const { return rdLockOwner.isNone(); }
};

static_assert(sizeof(Record) == 24, "a record is four timestamps + value");

/**
 * The Obsolete primitive (paper §III-A): a client-write with timestamp
 * @p ts_wr is obsolete iff the local volatile copy already carries a
 * newer timestamp.
 */
inline bool
isObsolete(const Record &rec, const Timestamp &ts_wr)
{
    return rec.volatileTs > ts_wr;
}

/**
 * Record with atomic metadata for the threaded runtime.
 *
 * All timestamp-typed fields store Timestamp::pack() words so a plain
 * integer CAS implements the protocol's atomic snatch/update operations
 * (snatching, obsoleteness checks, spin loops), and raw comparison of
 * loaded words equals timestamp comparison.
 */
struct AtomicRecord
{
    AtomicRecord();

    std::atomic<std::uint64_t> rdLockOwner;
    std::atomic<std::uint64_t> volatileTs;
    std::atomic<std::uint64_t> glbVolatileTs;
    std::atomic<std::uint64_t> glbDurableTs;
    std::atomic<bool> wrLock;
    std::atomic<Value> value;
    /**
     * Monotonic guard keeping locally-issued TS_WR versions unique when
     * several local threads write the record concurrently (the paper's
     * "volatileTS version + 1" rule alone would collide).
     */
    std::atomic<std::int64_t> localVersionGuard{0};

    /** Convenience loads decoded back to Timestamp. */
    Timestamp loadRdLockOwner() const;
    Timestamp loadVolatileTs() const;
    Timestamp loadGlbVolatileTs() const;
    Timestamp loadGlbDurableTs() const;

    /**
     * Monotonically raise a packed-timestamp field to @p ts: CAS loop that
     * only replaces strictly older values. Returns true if this call
     * performed the update.
     */
    static bool raiseTs(std::atomic<std::uint64_t> &field,
                        const Timestamp &ts);
};

} // namespace minos::kv

#endif // MINOS_KV_RECORD_HH
