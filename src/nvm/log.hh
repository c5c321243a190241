/**
 * @file
 * Per-key durable state and its update rule (paper §III-B and §V-B.4).
 *
 * "While the volatile state is always updated in increasing order of
 *  write TS, the NVM can be updated by writes out of order. This is
 *  acceptable because we use a log structure for the persists."
 *
 * Persists may therefore land out of timestamp order and may be
 * obsolete. Durability is per key: a key's durable state takes an
 * update only if its TS is strictly newer than the key's durable TS
 * (DurableRecord::offer), which keeps each key's newest persist
 * whatever order they landed in. Every engine keeps that per-key result
 * instead of a raw log: the threaded runtime (proto/) one DurableRecord
 * per key, the simulated engines an overlay over their records
 * (nvm/durable_state.hh).
 *
 * LogEntry is the recovery shipping unit: when a failed node rejoins,
 * the designated node ships it one entry per key it holds durable
 * (§III-E), and the rejoiner offers each to its own state. DurableLog
 * is only the append-only log whose append cost perfbench's
 * nvm.append_ns fixture times.
 */

#ifndef MINOS_NVM_LOG_HH
#define MINOS_NVM_LOG_HH

#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "kv/record.hh"
#include "kv/timestamp.hh"

namespace minos::nvm {

/** One persisted update. */
struct LogEntry
{
    kv::Key key;
    kv::Value value;
    kv::Timestamp ts;

    friend bool operator==(const LogEntry &, const LogEntry &) = default;
};

static_assert(sizeof(LogEntry) == 24, "key, value and a 4-byte TS, padded");

/** Durable state of one key; a TS of none means nothing persisted. */
struct DurableRecord
{
    kv::Value value = 0;
    kv::Timestamp ts = kv::Timestamp::none();

    /** The durability rule (§V-B.4): an update with TS @p ts replaces
     *  a durable TS @p durable only if strictly newer. None is older
     *  than every real TS, so a key's first persist always enters. */
    static bool
    supersedes(kv::Timestamp ts, kv::Timestamp durable)
    {
        return ts > durable;
    }

    /** Take (@p v, @p t) under the rule; whether it was taken. */
    bool
    offer(kv::Value v, kv::Timestamp t)
    {
        if (!supersedes(t, ts))
            return false;
        value = v;
        ts = t;
        return true;
    }
};

static_assert(sizeof(DurableRecord) == 16, "value and a 4-byte TS, padded");

/** Key -> durable record map: the durable state of a node's keys that
 *  have a persisted update. */
using DurableDb = std::unordered_map<kv::Key, DurableRecord>;

/** Append-only log of persists, behind a mutex. Nothing reads it back:
 *  it exists for perfbench's append-cost fixture. */
class DurableLog
{
  public:
    /** Persist one update. Returns the entry's log index. */
    std::size_t append(const LogEntry &entry);

    /** Number of entries persisted so far. */
    std::size_t size() const;

  private:
    mutable std::mutex mutex_;
    std::vector<LogEntry> entries_;
};

} // namespace minos::nvm

#endif // MINOS_NVM_LOG_HH
