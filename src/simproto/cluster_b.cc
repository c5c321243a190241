#include "cluster_b.hh"

namespace minos::simproto {

using kv::NodeId;
using net::Message;

ClusterB::ClusterB(sim::Simulator &sim, const ClusterConfig &cfg,
                   PersistModel model, OffloadOptions opts)
    : ClusterShell(sim, cfg, model, opts, /*vfifo_cap=*/0,
                   /*dfifo_cap=*/0)
{
    buildNodes(*this);
}

void
ClusterB::deliverAt(Tick wire_arrival, const Message &msg)
{
    // Remote NIC -> host receive queue over the destination's PCIe.
    Tick at_host = fabric(msg.dst).pcieIn.transferFrom(wire_arrival,
                                                       msg.sizeBytes);
    NodeB *dst = &node(msg.dst);
    sim_.schedule(at_host, [dst, msg] { dst->deliver(msg); });
}

void
ClusterB::unicast(const Message &msg)
{
    MINOS_ASSERT(msg.src >= 0 && msg.src < cfg_.numNodes &&
                 msg.dst >= 0 && msg.dst < cfg_.numNodes &&
                 msg.src != msg.dst,
                 "bad unicast endpoints ", msg.src, "->", msg.dst);
    auto &fab = fabric(msg.src);
    // Host send queue -> NIC over PCIe, then NIC deposit and wire.
    Tick at_nic = fab.pcieOut.transferFrom(sim_.now(), msg.sizeBytes);
    deliverAt(fab.nic.send(at_nic, msg), msg);
}

void
ClusterB::multicast(const Message &tmpl)
{
    auto &fab = fabric(tmpl.src);

    if (!opts_.batching) {
        // The host generates one message per destination; each crosses
        // PCIe, is deposited by the NIC (with the inter-message gap),
        // and is serialized on the wire individually. (Broadcast cannot
        // help here: there is no single message for the dumb NIC to fan
        // out — §VIII-D finds B+bcast has no noticeable effect.)
        for (int d = 0; d < cfg_.numNodes; ++d) {
            if (d == tmpl.src)
                continue;
            Message m = tmpl;
            m.dst = static_cast<NodeId>(d);
            Tick at_nic = fab.pcieOut.transferFrom(sim_.now(),
                                                   m.sizeBytes);
            deliverAt(fab.nic.send(at_nic, m, cfg_.interMsgGapNs), m);
        }
        return;
    }

    // Batching: a single host->NIC message carries all destinations
    // (payload once + 8B of header per destination). The dumb NIC
    // unpacks it per destination, unless broadcast lets it deposit the
    // message once and the wire carry one copy.
    Tick at_nic = fab.pcieOut.transferFrom(
        sim_.now(),
        tmpl.sizeBytes + 8u * static_cast<unsigned>(cfg_.followers()));
    fab.nic.fanOut(at_nic, tmpl, /*unpack=*/true, opts_.broadcast,
                   [this](Tick arrival, const Message &m) {
                       deliverAt(arrival, m);
                   });
}

} // namespace minos::simproto
