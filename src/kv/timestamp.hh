/**
 * @file
 * Logical timestamps for the MINOS DDP protocols (paper §III-A).
 *
 * Each timestamp is a Lamport-style tuple <node_id, version>. Writes to
 * the same record are ordered old-to-new by version, ties broken by
 * node_id. The sentinel <-1, -1> means "none" and is also the released
 * state of RDLock_Owner.
 *
 * A timestamp is stored in 4 bytes of bit-fields. It also packs into a
 * single 64-bit integer (version + 1 in the high bits, node_id + 1 in
 * the low 16 bits) so that raw integer comparison equals timestamp
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
 * Four bytes: a 24-bit version and an 8-bit node id. Every replica
 * record holds four of these, so the width is what sizes the stores.
 * The constructor checks both ranges, so a value that does not fit
 * panics (or fails to compile as a constant) rather than wrapping.
 */
struct Timestamp
{
    /** Version counter; -1 only in the "none" sentinel. */
    std::int32_t version : 24 = -1;
    /** Initiating node; -1 only in the "none" sentinel. */
    NodeId node : 8 = -1;

    /** Largest version the signed 24-bit field holds. */
    static constexpr std::int64_t maxVersion = (std::int64_t{1} << 23) - 1;
    /** Largest node id the signed 8-bit field holds. */
    static constexpr NodeId maxNode = 127;
    /** Number of bits of the packed word holding node_id + 1. */
    static constexpr int nodeBits = 16;

    /** The "none" sentinel. */
    constexpr Timestamp() = default;

    constexpr Timestamp(std::int64_t v, NodeId n)
        : version(static_cast<std::int32_t>(v)), node(n)
    {
        MINOS_ASSERT(v >= -1 && v <= maxVersion,
                     "timestamp version out of range: ", v);
        MINOS_ASSERT(n >= -1 && n <= maxNode,
                     "timestamp node id out of range: ", n);
    }

    /** The sentinel value: unset timestamp / released RDLock. */
    static constexpr Timestamp
    none()
    {
        return Timestamp{};
    }

    bool isNone() const { return version < 0; }

    /**
     * Ordering per §III-A: higher version is newer; same version, higher
     * node_id is newer. Both compare as one unsigned word: version above
     * node, each with its sign bit flipped (biased by 2^23 and 2^7), so
     * unsigned order is signed (version, node) order.
     */
    constexpr std::uint32_t
    orderKey() const
    {
        return ((static_cast<std::uint32_t>(version) << 8) |
                static_cast<std::uint8_t>(node)) ^
               0x80000080u;
    }

    friend constexpr std::strong_ordering
    operator<=>(const Timestamp &a, const Timestamp &b)
    {
        return a.orderKey() <=> b.orderKey();
    }

    friend constexpr bool
    operator==(const Timestamp &a, const Timestamp &b)
    {
        return a.orderKey() == b.orderKey();
    }

    /**
     * Pack into one word; preserves ordering of valid timestamps. The
     * field widths keep both fields below their packing limits, so only
     * a field assigned directly below -1 can fail to pack.
     */
    std::uint64_t
    pack() const
    {
        MINOS_ASSERT(version >= -1 && node >= -1,
                     "timestamp out of packing range: ", *this);
        return (static_cast<std::uint64_t>(version + 1) << nodeBits) |
               static_cast<std::uint64_t>(node + 1);
    }

    /** Inverse of pack(); the constructor checks the unpacked fields. */
    static Timestamp
    unpack(std::uint64_t word)
    {
        const std::uint64_t node1 = word & ((1u << nodeBits) - 1);
        return Timestamp{static_cast<std::int64_t>(word >> nodeBits) - 1,
                         static_cast<NodeId>(node1) - 1};
    }

    friend std::ostream &
    operator<<(std::ostream &os, const Timestamp &ts)
    {
        return os << "<" << ts.node << "," << ts.version << ">";
    }
};

static_assert(sizeof(Timestamp) == 4, "a timestamp is four bytes");

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

    /** A <Lin, Scope> [PERSIST]sc's identity: (scope, TS none). It never
     *  names a write: none packs to 0, every TS_WR to at least
     *  (1 << 16) | 1. */
    static WriteId
    ofScope(std::uint64_t scope)
    {
        return {scope, Timestamp::none().pack()};
    }

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
