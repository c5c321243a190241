/**
 * @file
 * The replicated record store of one simulated node, shared by MINOS-B
 * (simproto/node_b) and MINOS-O (snic/node_o, whose vFIFO and dFIFO
 * apply and persist into it).
 *
 * It keeps the records, the node's durable state as the records plus an
 * overlay (nvm/durable_state.hh), and the guard that keeps locally
 * issued TS_WR unique. The engines change a record's value only through
 * apply() and persist only through persist(), so the durable state and
 * the guard follow every update.
 */

#ifndef MINOS_SIMPROTO_REPLICA_STORE_HH
#define MINOS_SIMPROTO_REPLICA_STORE_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "kv/store.hh"
#include "nvm/durable_state.hh"

namespace minos::simproto {

/** Records, durable state and TS_WR guard of one simulated node. */
class ReplicaStore
{
  public:
    explicit ReplicaStore(std::size_t num_records) : records_(num_records)
    {
    }

    ReplicaStore(const ReplicaStore &) = delete;
    ReplicaStore &operator=(const ReplicaStore &) = delete;

    kv::Record &at(kv::Key key) { return records_.at(key); }
    const kv::Record &at(kv::Key key) const { return records_.at(key); }

    /**
     * Record-apply hook: the update (@p key, @p value, @p ts) lands in
     * @p rec, the record of @p key. The guard entry of @p key goes once
     * the record has reached the newest TS_WR issued here for it.
     */
    void
    apply(kv::Record &rec, kv::Key key, kv::Value value, kv::Timestamp ts)
    {
        durable_.apply(rec, key, value, ts);
        if (nextLocalVersion_.empty())
            return;
        const auto it = findGuard(key);
        if (it != nextLocalVersion_.end() &&
            rec.volatileTs.version + 1 >= it->second) {
            *it = nextLocalVersion_.back();
            nextLocalVersion_.pop_back();
        }
    }

    /** Persist hook: the update (@p key, @p value, @p ts) is durable. */
    void
    persist(kv::Key key, kv::Value value, kv::Timestamp ts)
    {
        durable_.persist(records_.at(key), key, value, ts);
    }

    /**
     * Generate a unique TS_WR for a new client-write of node @p node on
     * @p key, whose record is @p rec. It is newer than the local copy,
     * so a write cannot be obsolete before its first suspension: the
     * engines check only after the snatch (Fig. 2 line 5's early check
     * can never fire).
     */
    kv::Timestamp makeWriteTs(kv::Key key, const kv::Record &rec,
                              kv::NodeId node);

    /** The node's durable state. */
    const nvm::DurableState &durable() const { return durable_; }

    /** Durable record of @p key; nullopt if nothing of it persisted. */
    std::optional<nvm::DurableRecord>
    durableAt(kv::Key key) const
    {
        return durable_.at(records_.at(key), key);
    }

    /** The durable database: every persist replayed in order. */
    nvm::DurableDb durableDb() const { return durable_.db(records_); }

    /** Keys whose record has not yet reached a TS_WR issued here. */
    std::size_t guardedKeys() const { return nextLocalVersion_.size(); }

  private:
    std::vector<std::pair<kv::Key, std::int64_t>>::iterator
    findGuard(kv::Key key)
    {
        auto it = nextLocalVersion_.begin();
        while (it != nextLocalVersion_.end() && it->first != key)
            ++it;
        return it;
    }

    kv::SimStore records_;
    nvm::DurableState durable_;
    /**
     * Per-key guard that keeps locally issued TS_WR unique: the version
     * after the newest one issued here, for the keys whose record has
     * not reached it. Only a write in flight on this node keeps an
     * entry, so a flat list serves.
     */
    std::vector<std::pair<kv::Key, std::int64_t>> nextLocalVersion_;
};

} // namespace minos::simproto

#endif // MINOS_SIMPROTO_REPLICA_STORE_HH
