/**
 * @file
 * Durable append-only log (paper §III-B and §V-B.4).
 *
 * "While the volatile state is always updated in increasing order of
 *  write TS, the NVM can be updated by writes out of order. This is
 *  acceptable because we use a log structure for the persists."
 *
 * Entries may therefore arrive out of timestamp order and may be obsolete;
 * correctness is restored when the log is applied to the durable database,
 * where every entry is checked for obsoleteness against the newest
 * timestamp already applied for its key.
 *
 * The log is also the unit of recovery: when a failed node rejoins, a
 * designated node ships it the suffix of committed entries it missed
 * (§III-E), which the rejoining node replays.
 *
 * Only the threaded runtime (proto/) keeps this log. The simulated
 * engines never read theirs back, so they keep the per-key result of
 * applying it instead (nvm/durable_state.hh).
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

/** Durable state of one key after log application. */
struct DurableRecord
{
    kv::Value value = 0;
    kv::Timestamp ts = kv::Timestamp::none();
};

static_assert(sizeof(DurableRecord) == 16, "value and a 4-byte TS, padded");

/** Key -> durable record map produced by replaying a log. */
using DurableDb = std::unordered_map<kv::Key, DurableRecord>;

/**
 * Append-only durable log with snapshot compaction. Thread-safe:
 * operations take a mutex (the emulated persist latency dwarfs it by
 * orders of magnitude).
 *
 * Compaction folds a prefix of the log into a per-key snapshot (keeping
 * only each key's newest update), after which the raw entries of that
 * prefix are discarded. Log indices remain global: `size()` keeps
 * counting from the beginning of time, and reading into the compacted
 * prefix is an error.
 */
class DurableLog
{
  public:
    DurableLog() = default;

    /** Persist one update. Returns the entry's (global) log index. */
    std::size_t append(const LogEntry &entry);

    /** Number of entries persisted so far (including compacted ones). */
    std::size_t size() const;

    /** First index still stored as a raw entry. */
    std::size_t compactedThrough() const;

    /** Copy of entry @p index. @pre compactedThrough() <= index < size() */
    LogEntry entryAt(std::size_t index) const;

    /**
     * Copy of all raw entries at indices >= @p from.
     * @pre from >= compactedThrough() (or >= size(), which is empty)
     */
    std::vector<LogEntry> entriesSince(std::size_t from) const;

    /**
     * Everything needed to rebuild durable state from position @p from:
     * if @p from reaches into the compacted prefix, the snapshot is
     * materialized as synthetic entries (one per key, newest update)
     * followed by the raw suffix. This is the recovery shipping unit.
     */
    std::vector<LogEntry> exportSince(std::size_t from) const;

    /**
     * Fold entries [compactedThrough(), up_to) into the snapshot and
     * drop their raw form. @pre up_to <= size()
     */
    void compact(std::size_t up_to);

    /**
     * Replay the snapshot (if @p from reaches into it) and the raw
     * entries [from, size()) into @p db, skipping obsolete entries.
     * @return number of entries actually applied.
     */
    std::size_t applyTo(DurableDb &db, std::size_t from = 0) const;

    /** Drop everything, including the snapshot (test helper). */
    void clear();

  private:
    mutable std::mutex mutex_;
    std::vector<LogEntry> entries_; ///< raw suffix
    DurableDb snapshot_;            ///< compacted prefix, per-key newest
    std::size_t base_ = 0;          ///< global index of entries_[0]
};

/**
 * Apply a batch of shipped entries to a database, skipping obsolete ones.
 * Used on the recovery path when replaying a remote node's log suffix.
 * @return number of entries applied.
 */
std::size_t applyEntries(DurableDb &db,
                         const std::vector<LogEntry> &entries);

} // namespace minos::nvm

#endif // MINOS_NVM_LOG_HH
