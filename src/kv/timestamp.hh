/**
 * @file
 * Logical timestamps for the MINOS DDP protocols (paper §III-A).
 *
 * Each timestamp is a Lamport-style tuple <node_id, version>. Writes to
 * the same record are ordered old-to-new by version, ties broken by
 * node_id. The sentinel <-1, -1> means "none" and is also the released
 * state of RDLock_Owner.
 *
 * A timestamp is stored as one 8-byte word of bit-fields. It also packs
 * into a single 64-bit integer (version + 1 in the high bits, node_id + 1
 * in the low 16 bits) so that raw integer comparison equals timestamp
 * comparison and the threaded runtime can CAS them atomically.
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
 *
 * One 8-byte word: a 48-bit version and a 16-bit node id. Every replica
 * record holds four of these, so the width is what sizes the stores.
 */
struct Timestamp
{
    /** Version counter; -1 only in the "none" sentinel. */
    std::int64_t version : 48 = -1;
    /** Initiating node; -1 only in the "none" sentinel. */
    NodeId node : 16 = -1;

    /** Number of bits of the packed word holding node_id + 1. */
    static constexpr int nodeBits = 16;
    /** Largest node id a timestamp holds (the field is signed). */
    static constexpr NodeId maxNode = (1 << (nodeBits - 1)) - 1;
    /**
     * Largest version that packs: (version + 1) << nodeBits stays below
     * 2^63, so a packed word is a non-negative int64 trace token.
     */
    static constexpr std::int64_t maxVersion =
        (std::int64_t{1} << (63 - nodeBits)) - 2;

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

    /** Pack into one word; preserves ordering of valid timestamps. */
    std::uint64_t
    pack() const
    {
        MINOS_ASSERT(node >= -1 && node <= maxNode,
                     "node id out of packing range: ", NodeId{node});
        MINOS_ASSERT(version >= -1 && version <= maxVersion,
                     "version out of packing range: ",
                     std::int64_t{version});
        return (static_cast<std::uint64_t>(version + 1) << nodeBits) |
               static_cast<std::uint64_t>(node + 1);
    }

    /** Inverse of pack(). */
    static Timestamp
    unpack(std::uint64_t word)
    {
        const std::uint64_t ver1 = word >> nodeBits;
        const std::uint64_t node1 = word & ((1u << nodeBits) - 1);
        MINOS_ASSERT(ver1 <= static_cast<std::uint64_t>(maxVersion) + 1,
                     "packed version out of range: ", ver1);
        MINOS_ASSERT(node1 <= static_cast<std::uint64_t>(maxNode) + 1,
                     "packed node id out of range: ", node1);
        return Timestamp{static_cast<std::int64_t>(ver1) - 1,
                         static_cast<NodeId>(node1) - 1};
    }

    friend std::ostream &
    operator<<(std::ostream &os, const Timestamp &ts)
    {
        return os << "<" << ts.node << "," << ts.version << ">";
    }
};

static_assert(sizeof(Timestamp) == 8, "a timestamp is one word");

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
