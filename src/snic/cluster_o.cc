#include "cluster_o.hh"

#include "obs/audit.hh"

namespace minos::snic {

using kv::NodeId;
using net::Message;
using net::MsgType;

ClusterO::ClusterO(sim::Simulator &sim, const ClusterConfig &cfg,
                   PersistModel model, OffloadOptions opts)
    : sim_(sim), cfg_(cfg), model_(model), opts_(opts)
{
    MINOS_ASSERT(cfg_.numNodes >= 2, "a cluster needs >= 2 nodes");
    MINOS_ASSERT(cfg_.numNodes <= 64, "destMask limits nodes to 64");
    if (cfg_.audit) {
        MINOS_ASSERT(cfg_.trace,
                     "auditors ride the flight recorder's sink bus; "
                     "set ClusterConfig::trace too");
        cfg_.audit->configure({cfg_.numNodes, model_,
                               cfg_.vfifoEntries, cfg_.dfifoEntries});
        cfg_.audit->attach(*cfg_.trace);
    }
    fabric_.reserve(static_cast<std::size_t>(cfg_.numNodes));
    nodes_.reserve(static_cast<std::size_t>(cfg_.numNodes));
    for (int i = 0; i < cfg_.numNodes; ++i)
        fabric_.push_back(std::make_unique<Fabric>(sim_, cfg_));
    // Nodes reference pcieToHost() during construction, so the fabric
    // must be complete first.
    for (int i = 0; i < cfg_.numNodes; ++i)
        nodes_.push_back(std::make_unique<NodeO>(
            sim_, *this, cfg_, model_, static_cast<NodeId>(i)));
}

NodeO &
ClusterO::node(NodeId id)
{
    MINOS_ASSERT(id >= 0 && id < cfg_.numNodes, "bad node id ", id);
    return *nodes_[static_cast<std::size_t>(id)];
}

sim::Link &
ClusterO::vfifoDma(NodeId id)
{
    MINOS_ASSERT(id >= 0 && id < cfg_.numNodes, "bad node id ", id);
    return fabric_[static_cast<std::size_t>(id)]->pcieDmaV;
}

sim::Link &
ClusterO::dfifoDma(NodeId id)
{
    MINOS_ASSERT(id >= 0 && id < cfg_.numNodes, "bad node id ", id);
    return fabric_[static_cast<std::size_t>(id)]->pcieDmaD;
}

sim::Task<OpStats>
ClusterO::clientWrite(NodeId node_id, kv::Key key, kv::Value value,
                      net::ScopeId scope)
{
    return node(node_id).clientWrite(key, value, scope);
}

sim::Task<OpStats>
ClusterO::clientRead(NodeId node_id, kv::Key key)
{
    return node(node_id).clientRead(key);
}

sim::Task<OpStats>
ClusterO::persistScope(NodeId node_id, net::ScopeId scope)
{
    return node(node_id).persistScope(scope);
}

Tick
ClusterO::depositCost(MsgType type) const
{
    return net::carriesData(type) ? cfg_.sendInvNs : cfg_.sendAckNs;
}

void
ClusterO::hostSendInv(NodeId src, Message tmpl)
{
    auto &fab = *fabric_[static_cast<std::size_t>(src)];
    NodeO *snic = nodes_[static_cast<std::size_t>(src)].get();
    int dests = cfg_.followers();

    if (opts_.batching) {
        // One PCIe crossing carries the payload once plus a destination
        // map (8B per follower).
        std::uint64_t bytes =
            tmpl.sizeBytes + 8u * static_cast<unsigned>(dests);
        Message m = tmpl;
        m.destMask = (std::uint64_t{1} << cfg_.numNodes) - 1;
        m.destMask &= ~(std::uint64_t{1} << src);
        Tick arrival = fab.pcieDown.transferFrom(sim_.now(), bytes);
        sim_.schedule(arrival, [snic, m] { snic->deliverToSnic(m); });
        return;
    }

    // No batching: the host posts one INV per follower; each crosses
    // PCIe individually. The SNIC does the protocol work on the first
    // one of the transaction and forwards each as it arrives.
    for (int d = 0; d < cfg_.numNodes; ++d) {
        if (d == src)
            continue;
        Message m = tmpl;
        m.destMask = std::uint64_t{1} << d;
        Tick arrival = fab.pcieDown.transferFrom(sim_.now(),
                                                 m.sizeBytes);
        sim_.schedule(arrival, [snic, m] { snic->deliverToSnic(m); });
    }
}

void
ClusterO::hostSendControl(NodeId src, Message msg)
{
    auto &fab = *fabric_[static_cast<std::size_t>(src)];
    NodeO *snic = nodes_[static_cast<std::size_t>(src)].get();
    Tick arrival = fab.pcieDown.transferFrom(sim_.now(), msg.sizeBytes);
    sim_.schedule(arrival, [snic, msg] { snic->deliverToSnic(msg); });
}

void
ClusterO::snicUnicast(Message msg)
{
    MINOS_ASSERT(msg.src != msg.dst, "SNIC unicast to self");
    auto &fab = *fabric_[static_cast<std::size_t>(msg.src)];
    // Table III's inter-message gap applies to fan-outs of the same
    // message (no broadcast support), not to independent unicasts.
    Tick deposited = fab.snicTx.occupyFrom(sim_.now(),
                                           depositCost(msg.type));
    Tick arrival = fab.netOut.transferFrom(deposited, msg.sizeBytes);
    NodeO *dst = nodes_[static_cast<std::size_t>(msg.dst)].get();
    sim_.schedule(arrival, [dst, msg] { dst->deliverToSnic(msg); });
}

void
ClusterO::snicMulticast(NodeId src, Message tmpl, bool from_batched)
{
    auto &fab = *fabric_[static_cast<std::size_t>(src)];

    if (opts_.broadcast) {
        // Broadcast hardware (§V-B.3): deposit once, fill the
        // Destination Map register, one wire serialization; a batched
        // message is consumed directly, no unpacking.
        Tick deposited = fab.snicTx.occupyFrom(sim_.now(),
                                               depositCost(tmpl.type));
        Tick arrival = fab.netOut.transferFrom(deposited,
                                               tmpl.sizeBytes);
        for (int d = 0; d < cfg_.numNodes; ++d) {
            if (d == src)
                continue;
            Message m = tmpl;
            m.dst = static_cast<NodeId>(d);
            m.destMask = 0;
            NodeO *dst = nodes_[static_cast<std::size_t>(d)].get();
            sim_.schedule(arrival, [dst, m] { dst->deliverToSnic(m); });
        }
        return;
    }

    // No broadcast: each copy is deposited individually (with the
    // inter-message gap) and serialized on the wire; a batched message
    // additionally pays the per-destination unpack (§VIII-D).
    Tick ready = sim_.now();
    for (int d = 0; d < cfg_.numNodes; ++d) {
        if (d == src)
            continue;
        Message m = tmpl;
        m.dst = static_cast<NodeId>(d);
        m.destMask = 0;
        Tick service = depositCost(m.type) + cfg_.interMsgGapNs;
        if (from_batched)
            service += cfg_.snicUnpackPerDestNs;
        Tick deposited = fab.snicTx.occupyFrom(ready, service);
        Tick arrival = fab.netOut.transferFrom(deposited, m.sizeBytes);
        NodeO *dst = nodes_[static_cast<std::size_t>(d)].get();
        sim_.schedule(arrival, [dst, m] { dst->deliverToSnic(m); });
    }
}

void
ClusterO::snicNotifyHost(NodeId src, std::uint32_t bytes,
                         sim::EventFn deliver)
{
    auto &fab = *fabric_[static_cast<std::size_t>(src)];
    Tick arrival = fab.pcieUp.transferFrom(sim_.now(), bytes);
    sim_.schedule(arrival, std::move(deliver));
}

} // namespace minos::snic
