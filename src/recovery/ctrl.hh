/**
 * @file
 * Failure-detection and recovery control messages (paper §III-E).
 *
 * The DDP protocol proper only uses the Table I message vocabulary;
 * membership and recovery ride on a separate control plane:
 *  - Fail(n): a timeout identified node n as non-responding; all nodes
 *    drop it from the live set.
 *  - JoinReq(n): node n asks to be re-inserted into the cluster.
 *  - LogShip: the designated node ships its durable snapshot to the
 *    rejoining node, one entry per key with a persisted update; the
 *    rejoiner applies each to its durable and volatile state (obsolete
 *    entries are filtered on apply).
 *  - Joined(n): announces that n is live again.
 */

#ifndef MINOS_RECOVERY_CTRL_HH
#define MINOS_RECOVERY_CTRL_HH

#include <cstdint>
#include <vector>

#include "kv/timestamp.hh"
#include "nvm/log.hh"

namespace minos::recovery {

/** Control-plane message kinds. */
enum class CtrlType : std::uint8_t
{
    Fail,
    JoinReq,
    LogShip,
    Joined,
};

/** One control-plane message. */
struct CtrlMsg
{
    CtrlType type = CtrlType::Fail;
    kv::NodeId src = -1;
    kv::NodeId dst = -1;
    /** Subject node (the failed / rejoining node). */
    kv::NodeId subject = -1;
    /** Shipped durable entries, one per key (LogShip only). */
    std::vector<nvm::LogEntry> entries;
    /** Sender's liveness view, shipped so the rejoiner resyncs it. */
    std::uint64_t liveMask = 0;
};

/** Node-liveness bitmask helpers. */
constexpr std::uint64_t
nodeBit(kv::NodeId n)
{
    return std::uint64_t{1} << n;
}

constexpr bool
isLive(std::uint64_t mask, kv::NodeId n)
{
    return (mask & nodeBit(n)) != 0;
}

/**
 * The designated recovery node: the lowest-id live node (it ships its
 * durable state to rejoining nodes).
 */
kv::NodeId designatedNode(std::uint64_t live_mask, int num_nodes);

} // namespace minos::recovery

#endif // MINOS_RECOVERY_CTRL_HH
