/**
 * @file
 * In-process loopback fabric for the threaded MINOS-B runtime — the
 * eRPC-shaped transport of the paper's "distributed machine" (§IV/VII).
 *
 * Each node owns an inbound queue; send() stamps the message with a
 * delivery deadline (the configured one-way wire latency) and poll()
 * releases messages once their deadline passes, preserving per-queue
 * FIFO order. Only the wire is emulated: all protocol computation,
 * locking, and persistence run on real threads with real races.
 *
 * The fabric supports failure injection (link down drops all traffic to
 * and from a node), which drives the §III-E failure-detection and
 * recovery machinery.
 */

#ifndef MINOS_RUNTIME_FABRIC_HH
#define MINOS_RUNTIME_FABRIC_HH

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <variant>
#include <vector>

#include "net/message.hh"
#include "recovery/ctrl.hh"

namespace minos::runtime {

/** A protocol or control-plane message on the wire. */
using Envelope = std::variant<net::Message, recovery::CtrlMsg>;

/** Destination node of an envelope. */
kv::NodeId envelopeDst(const Envelope &env);

/** Source node of an envelope. */
kv::NodeId envelopeSrc(const Envelope &env);

/** Loopback transport with injected latency and failure injection. */
class Fabric
{
  public:
    /**
     * @param nodes cluster size, 1..64
     * @param wire_latency one-way delivery latency (real time)
     */
    Fabric(int nodes, std::chrono::nanoseconds wire_latency =
                          std::chrono::microseconds(2));

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /** Send to the envelope's destination; dropped if a link is down. */
    void send(Envelope env);

    /**
     * Take the next due message for @p node, if any. Non-blocking;
     * returns nullopt when nothing is deliverable yet.
     */
    std::optional<Envelope> poll(kv::NodeId node);

    /** Bring a node's links up or down (failure injection). */
    void setLinkUp(kv::NodeId node, bool up);
    bool linkUp(kv::NodeId node) const;
    /** The nodes whose links are up, one bit per node id. */
    std::uint64_t
    upMask() const
    {
        return up_.load(std::memory_order_acquire);
    }

    int numNodes() const { return static_cast<int>(queues_.size()); }

    /** Messages dropped due to down links (tests/diagnostics). */
    std::uint64_t dropped() const { return dropped_.load(); }

  private:
    using Clock = std::chrono::steady_clock;

    struct Timed
    {
        Clock::time_point due;
        Envelope env;
    };

    struct Queue
    {
        std::mutex mutex;
        std::deque<Timed> items;
    };

    std::vector<std::unique_ptr<Queue>> queues_;
    /** One bit per node whose links are up. */
    std::atomic<std::uint64_t> up_{0};
    std::chrono::nanoseconds latency_;
    std::atomic<std::uint64_t> dropped_{0};
};

} // namespace minos::runtime

#endif // MINOS_RUNTIME_FABRIC_HH
