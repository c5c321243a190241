/**
 * @file
 * Logical timestamps for the MINOS DDP protocols (paper §III-A).
 *
 * Each timestamp is a Lamport-style tuple <node_id, version>. Writes to
 * the same record are ordered old-to-new by version, ties broken by
 * node_id. The sentinel <-1, -1> means "none" and is also the released
 * state of RDLock_Owner.
 *
 * Timestamps pack into a single 64-bit word (version in the high bits,
 * node_id + 1 in the low 16 bits) so that raw integer comparison equals
 * timestamp comparison and the threaded runtime can CAS them atomically.
 */

#ifndef MINOS_KV_TIMESTAMP_HH
#define MINOS_KV_TIMESTAMP_HH

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>

#include "common/logging.hh"
#include "common/slot_index.hh"

namespace minos::kv {

/** Node identifier; -1 means "no node". */
using NodeId = std::int32_t;

/** Record key. Records are replicated on every node (paper §II-A). */
using Key = std::uint64_t;

/**
 * Logical timestamp <node_id, version> (Figure 1(b) of the paper).
 */
struct Timestamp
{
    /** Version counter; -1 only in the "none" sentinel. */
    std::int64_t version = -1;
    /** Initiating node; -1 only in the "none" sentinel. */
    NodeId node = -1;

    /** The sentinel value: unset timestamp / released RDLock. */
    static constexpr Timestamp
    none()
    {
        return Timestamp{-1, -1};
    }

    bool isNone() const { return version < 0; }

    /**
     * Ordering per §III-A: higher version is newer; same version, higher
     * node_id is newer. Member order (version, node) makes the defaulted
     * comparison implement exactly that.
     */
    friend auto operator<=>(const Timestamp &,
                            const Timestamp &) = default;

    /** Number of bits of the packed word holding node_id + 1. */
    static constexpr int nodeBits = 16;

    /** Pack into one word; preserves ordering of valid timestamps. */
    std::uint64_t
    pack() const
    {
        MINOS_ASSERT(node >= -1 && node < (1 << nodeBits) - 1,
                     "node id out of packing range: ", node);
        MINOS_ASSERT(version >= -1 &&
                     version < (std::int64_t{1} << (63 - nodeBits)) - 1,
                     "version out of packing range: ", version);
        return (static_cast<std::uint64_t>(version + 1) << nodeBits) |
               static_cast<std::uint64_t>(node + 1);
    }

    /** Inverse of pack(). */
    static Timestamp
    unpack(std::uint64_t word)
    {
        Timestamp ts;
        ts.version =
            static_cast<std::int64_t>(word >> nodeBits) - 1;
        ts.node = static_cast<NodeId>(word & ((1u << nodeBits) - 1)) - 1;
        return ts;
    }

    friend std::ostream &
    operator<<(std::ostream &os, const Timestamp &ts)
    {
        return os << "<" << ts.node << "," << ts.version << ">";
    }
};

/**
 * Identity of one write (paper Fig. 2): its key and packed TS_WR.
 * TS_WR versions are per-record, so a TS alone is not unique across
 * keys (two keys written once by node 0 both carry TS 1.0).
 */
struct WriteId
{
    Key key = 0;
    std::uint64_t ts = 0; ///< Timestamp::pack() of TS_WR

    static WriteId of(Key k, const Timestamp &t) { return {k, t.pack()}; }

    bool operator==(const WriteId &) const = default;

    std::uint32_t hash() const { return SlotIndex::hash(key, ts); }

    /** Hasher for std::unordered_map, through the slot-index hash. */
    struct Hash
    {
        std::size_t operator()(const WriteId &id) const { return id.hash(); }
    };
};

} // namespace minos::kv

namespace std {

template <>
struct hash<minos::kv::Timestamp>
{
    size_t
    operator()(const minos::kv::Timestamp &ts) const noexcept
    {
        return std::hash<std::uint64_t>()(ts.pack());
    }
};

} // namespace std

#endif // MINOS_KV_TIMESTAMP_HH
