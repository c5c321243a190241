#include "cluster_b.hh"

#include "obs/audit.hh"

namespace minos::simproto {

using kv::NodeId;
using net::Message;
using net::MsgType;

ClusterB::ClusterB(sim::Simulator &sim, const ClusterConfig &cfg,
                   PersistModel model, OffloadOptions opts)
    : sim_(sim), cfg_(cfg), model_(model), opts_(opts)
{
    MINOS_ASSERT(cfg_.numNodes >= 2, "a cluster needs >= 2 nodes");
    MINOS_ASSERT(cfg_.numNodes <= 64, "destMask limits nodes to 64");
    if (cfg_.audit) {
        MINOS_ASSERT(cfg_.trace,
                     "auditors ride the flight recorder's sink bus; "
                     "set ClusterConfig::trace too");
        cfg_.audit->configure(
            {cfg_.numNodes, model_, /*vfifoCap=*/0, /*dfifoCap=*/0});
        cfg_.audit->attach(*cfg_.trace);
    }
    fabric_.reserve(static_cast<std::size_t>(cfg_.numNodes));
    nodes_.reserve(static_cast<std::size_t>(cfg_.numNodes));
    for (int i = 0; i < cfg_.numNodes; ++i) {
        fabric_.push_back(std::make_unique<Fabric>(sim_, cfg_));
        nodes_.push_back(std::make_unique<NodeB>(
            sim_, *this, cfg_, model_, static_cast<NodeId>(i)));
    }
}

NodeB &
ClusterB::node(NodeId id)
{
    MINOS_ASSERT(id >= 0 && id < cfg_.numNodes, "bad node id ", id);
    return *nodes_[static_cast<std::size_t>(id)];
}

sim::Task<OpStats>
ClusterB::clientWrite(NodeId node_id, kv::Key key, kv::Value value,
                      net::ScopeId scope)
{
    return node(node_id).clientWrite(key, value, scope);
}

sim::Task<OpStats>
ClusterB::clientRead(NodeId node_id, kv::Key key)
{
    return node(node_id).clientRead(key);
}

sim::Task<OpStats>
ClusterB::persistScope(NodeId node_id, net::ScopeId scope)
{
    return node(node_id).persistScope(scope);
}

Tick
ClusterB::depositCost(MsgType type) const
{
    return net::carriesData(type) ? cfg_.sendInvNs : cfg_.sendAckNs;
}

void
ClusterB::deliverAt(Tick wire_arrival, Message msg)
{
    // Remote NIC -> host receive queue over the destination's PCIe.
    auto &dst_fab = *fabric_[static_cast<std::size_t>(msg.dst)];
    Tick at_host = dst_fab.pcieIn.transferFrom(wire_arrival,
                                               msg.sizeBytes);
    NodeB *dst = nodes_[static_cast<std::size_t>(msg.dst)].get();
    sim_.schedule(at_host, [dst, msg] { dst->deliver(msg); });
}

void
ClusterB::unicast(Message msg)
{
    MINOS_ASSERT(msg.src >= 0 && msg.src < cfg_.numNodes &&
                 msg.dst >= 0 && msg.dst < cfg_.numNodes &&
                 msg.src != msg.dst,
                 "bad unicast endpoints ", msg.src, "->", msg.dst);
    auto &fab = *fabric_[static_cast<std::size_t>(msg.src)];
    // Host send queue -> NIC over PCIe.
    Tick at_nic = fab.pcieOut.transferFrom(sim_.now(), msg.sizeBytes);
    // NIC send engine deposit. Table III's inter-message gap applies to
    // fan-outs of the same message, not to independent unicasts.
    Tick deposited = fab.nicTx.occupyFrom(at_nic,
                                          depositCost(msg.type));
    // Wire.
    Tick arrival = fab.netOut.transferFrom(deposited, msg.sizeBytes);
    deliverAt(arrival, msg);
}

void
ClusterB::multicast(NodeId src, Message tmpl)
{
    auto &fab = *fabric_[static_cast<std::size_t>(src)];

    if (!opts_.batching) {
        // The host generates one message per destination; each crosses
        // PCIe, is deposited by the NIC, and is serialized on the wire
        // individually. (Broadcast cannot help here: there is no single
        // message for the dumb NIC to fan out — §VIII-D finds B+bcast
        // has no noticeable effect.)
        for (int d = 0; d < cfg_.numNodes; ++d) {
            if (d == src)
                continue;
            Message m = tmpl;
            m.dst = static_cast<NodeId>(d);
            Tick at_nic = fab.pcieOut.transferFrom(sim_.now(),
                                                   m.sizeBytes);
            Tick deposited = fab.nicTx.occupyFrom(
                at_nic, depositCost(m.type) + cfg_.interMsgGapNs);
            Tick arrival = fab.netOut.transferFrom(deposited,
                                                   m.sizeBytes);
            deliverAt(arrival, m);
        }
        return;
    }

    // Batching: a single host->NIC message carries all destinations
    // (payload once + 8B of header per destination).
    int dests = cfg_.followers();
    std::uint64_t batched_bytes =
        tmpl.sizeBytes + 8u * static_cast<unsigned>(dests);
    Tick at_nic = fab.pcieOut.transferFrom(sim_.now(), batched_bytes);

    if (!opts_.broadcast) {
        // The dumb NIC unpacks the batch per destination, then deposits
        // and serializes each copy individually.
        Tick unpack_done = at_nic;
        for (int d = 0; d < cfg_.numNodes; ++d) {
            if (d == src)
                continue;
            Message m = tmpl;
            m.dst = static_cast<NodeId>(d);
            unpack_done = fab.nicTx.occupyFrom(
                unpack_done, cfg_.snicUnpackPerDestNs +
                                 depositCost(m.type) +
                                 cfg_.interMsgGapNs);
            Tick arrival = fab.netOut.transferFrom(unpack_done,
                                                   m.sizeBytes);
            deliverAt(arrival, m);
        }
        return;
    }

    // Batching + broadcast: one deposit, one wire serialization; the
    // network replicates the copy to every destination.
    Tick deposited = fab.nicTx.occupyFrom(at_nic,
                                          depositCost(tmpl.type));
    Tick arrival = fab.netOut.transferFrom(deposited, tmpl.sizeBytes);
    for (int d = 0; d < cfg_.numNodes; ++d) {
        if (d == src)
            continue;
        Message m = tmpl;
        m.dst = static_cast<NodeId>(d);
        deliverAt(arrival, m);
    }
}

} // namespace minos::simproto
