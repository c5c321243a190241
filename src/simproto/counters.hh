/**
 * @file
 * Per-node protocol counters (observability).
 *
 * Both engines count their protocol activity at the natural
 * chokepoints: message fan-outs, receive-side dispatch, obsoleteness
 * cuts, lock operations, and persists. Tests use them to assert
 * message-complexity properties (e.g. one INV per follower per
 * non-obsolete write); tools print them for run diagnosis.
 */

#ifndef MINOS_SIMPROTO_COUNTERS_HH
#define MINOS_SIMPROTO_COUNTERS_HH

#include <cstdint>
#include <string>

namespace minos::obs {
class MetricsRegistry;
} // namespace minos::obs

namespace minos::simproto {

/** Protocol activity of one node. */
struct NodeCounters
{
    // Sends (per destination message, i.e. a fan-out of N counts N).
    std::uint64_t invsSent = 0;
    std::uint64_t valsSent = 0;
    std::uint64_t acksSent = 0;

    // Receive-side dispatch.
    std::uint64_t invsReceived = 0;
    std::uint64_t acksReceived = 0;
    std::uint64_t valsReceived = 0;

    // Protocol events.
    std::uint64_t writesCoordinated = 0;
    std::uint64_t writesObsoleteCut = 0; ///< coordinator-side cuts
    std::uint64_t invsObsolete = 0;      ///< follower-side cuts
    std::uint64_t rdLockSnatches = 0;    ///< owner actually changed
    std::uint64_t persists = 0; ///< updates persisted (durable state's)

    /** Element-wise accumulation (cluster aggregation). */
    NodeCounters &operator+=(const NodeCounters &o);

    /** Multi-line human-readable rendering. */
    std::string str() const;

    /** Publish every field as "<prefix><name>" counters. */
    void registerInto(obs::MetricsRegistry &reg,
                      const std::string &prefix) const;
};

} // namespace minos::simproto

#endif // MINOS_SIMPROTO_COUNTERS_HH
