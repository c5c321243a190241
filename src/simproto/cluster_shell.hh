/**
 * @file
 * What the simulated MINOS-B (cluster_b) and MINOS-O (snic/cluster_o)
 * clusters share: the NIC send engine of every node's fabric, and the
 * cluster shell that owns the configuration, the per-node fabric and
 * node tables, and the DdpCluster forwarders.
 *
 * MINOS-O runs the same DDP algorithm as MINOS-B and only places it
 * differently (paper §V), so each engine keeps only its PCIe legs:
 * ClusterB crosses PCIe at both ends of every message, ClusterO only
 * between a host and its own SmartNIC.
 */

#ifndef MINOS_SIMPROTO_CLUSTER_SHELL_HH
#define MINOS_SIMPROTO_CLUSTER_SHELL_HH

#include <memory>
#include <vector>

#include "obs/audit.hh"
#include "sim/network.hh"
#include "simproto/cluster.hh"

namespace minos::simproto {

/**
 * A (Smart)NIC send engine and its egress port (Table III): the engine
 * deposits one message at a time into the send buffer (200 ns per INV,
 * 100 ns per ACK/VAL/control message), then the port serializes it
 * onto the wire.
 */
class NicTx
{
  public:
    NicTx(sim::Simulator &sim, const ClusterConfig &cfg)
        : cfg_(cfg), wire_(sim, cfg.netLatencyNs, cfg.netBwBytesPerSec)
    {
    }

    /**
     * Deposit @p msg no earlier than @p ready, taking @p extra ticks on
     * top of the deposit cost, then serialize it; returns the wire
     * arrival. Table III's inter-message gap applies to the copies of
     * one fan-out, not to independent unicasts.
     */
    Tick
    send(Tick ready, const net::Message &msg, Tick extra = 0)
    {
        Tick deposit = net::carriesData(msg.type) ? cfg_.sendInvNs
                                                  : cfg_.sendAckNs;
        return wire_.transferFrom(stage_.occupyFrom(ready, deposit + extra),
                                  msg.sizeBytes);
    }

    /**
     * Fan @p tmpl out to every node but tmpl.src, calling
     * @p deliver(arrival, copy) per copy. With @p broadcast the engine
     * deposits once and the wire carries one copy that the network
     * replicates (§V-B.3). Without it each copy pays the deposit, the
     * inter-message gap and its own serialization, plus, when
     * @p unpack, the split of a batched message per destination.
     */
    template <typename Deliver>
    void
    fanOut(Tick ready, const net::Message &tmpl, bool unpack,
           bool broadcast, Deliver deliver)
    {
        Tick arrival = broadcast ? send(ready, tmpl) : 0;
        Tick extra = cfg_.interMsgGapNs +
                     (unpack ? cfg_.snicUnpackPerDestNs : 0);
        for (int d = 0; d < cfg_.numNodes; ++d) {
            if (d == tmpl.src)
                continue;
            net::Message m = tmpl;
            m.dst = static_cast<kv::NodeId>(d);
            deliver(broadcast ? arrival : send(ready, m, extra), m);
        }
    }

  private:
    const ClusterConfig &cfg_;
    sim::SerialStage stage_; ///< deposit (+ gap, + unpack)
    sim::Link wire_;         ///< egress port -> wire
};

/**
 * The cluster shell: @p Node is the engine's node type, @p Fabric its
 * per-node links (built from the simulator and the config). The engine
 * adds the message paths and calls buildNodes() from its constructor.
 */
template <typename Node, typename Fabric>
class ClusterShell : public DdpCluster
{
  public:
    /** Nodes and pending events hold the cluster's address. */
    ClusterShell(const ClusterShell &) = delete;
    ClusterShell &operator=(const ClusterShell &) = delete;

    sim::Task<OpStats>
    clientWrite(kv::NodeId node_id, kv::Key key, kv::Value value,
                net::ScopeId scope) override
    {
        return node(node_id).clientWrite(key, value, scope);
    }

    sim::Task<OpStats>
    clientRead(kv::NodeId node_id, kv::Key key) override
    {
        return node(node_id).clientRead(key);
    }

    sim::Task<OpStats>
    persistScope(kv::NodeId node_id, net::ScopeId scope) override
    {
        return node(node_id).persistScope(scope);
    }

    int numNodes() const override { return cfg_.numNodes; }
    PersistModel model() const override { return model_; }
    const ClusterConfig &config() const override { return cfg_; }
    const OffloadOptions &options() const { return opts_; }

    Node &
    node(kv::NodeId id)
    {
        MINOS_ASSERT(id >= 0 && id < cfg_.numNodes, "bad node id ", id);
        return *nodes_[static_cast<std::size_t>(id)];
    }

  protected:
    /** @p vfifo_cap / @p dfifo_cap: the FIFO bounds the auditors check
     *  (0 = none; MINOS-B has no FIFOs). */
    ClusterShell(sim::Simulator &sim, const ClusterConfig &cfg,
                 PersistModel model, OffloadOptions opts, int vfifo_cap,
                 int dfifo_cap)
        : sim_(sim), cfg_(cfg), model_(model), opts_(opts)
    {
        MINOS_ASSERT(cfg_.numNodes >= 2, "a cluster needs >= 2 nodes");
        MINOS_ASSERT(cfg_.numNodes <= 64, "destMask limits nodes to 64");
        if (cfg_.audit) {
            MINOS_ASSERT(cfg_.trace,
                         "auditors ride the flight recorder's sink bus; "
                         "set ClusterConfig::trace too");
            cfg_.audit->configure(
                {cfg_.numNodes, model_, vfifo_cap, dfifo_cap});
            cfg_.audit->attach(*cfg_.trace);
        }
        fabric_.reserve(static_cast<std::size_t>(cfg_.numNodes));
        for (int i = 0; i < cfg_.numNodes; ++i)
            fabric_.push_back(std::make_unique<Fabric>(sim_, cfg_));
    }

    /** Build the nodes once the fabric is complete (a NodeO takes its
     *  FIFO DMA links from it); @p self is the engine. */
    template <typename Cluster>
    void
    buildNodes(Cluster &self)
    {
        nodes_.reserve(static_cast<std::size_t>(cfg_.numNodes));
        for (int i = 0; i < cfg_.numNodes; ++i)
            nodes_.push_back(std::make_unique<Node>(
                sim_, self, cfg_, model_, static_cast<kv::NodeId>(i)));
    }

    Fabric &
    fabric(kv::NodeId id)
    {
        MINOS_ASSERT(id >= 0 && id < cfg_.numNodes, "bad node id ", id);
        return *fabric_[static_cast<std::size_t>(id)];
    }

    sim::Simulator &sim_;
    ClusterConfig cfg_;
    PersistModel model_;
    OffloadOptions opts_;

  private:
    std::vector<std::unique_ptr<Fabric>> fabric_;
    std::vector<std::unique_ptr<Node>> nodes_;
};

} // namespace minos::simproto

#endif // MINOS_SIMPROTO_CLUSTER_SHELL_HH
