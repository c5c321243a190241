#include "cluster_o.hh"

namespace minos::snic {

using kv::NodeId;
using net::Message;

ClusterO::ClusterO(sim::Simulator &sim, const ClusterConfig &cfg,
                   PersistModel model, OffloadOptions opts)
    : ClusterShell(sim, cfg, model, opts, cfg.vfifoEntries,
                   cfg.dfifoEntries)
{
    buildNodes(*this);
}

void
ClusterO::toSnic(NodeId id, Tick at, const Message &msg)
{
    NodeO *snic = &node(id);
    sim_.schedule(at, [snic, msg] { snic->deliver(msg); });
}

void
ClusterO::hostSendInv(NodeId src, const Message &tmpl)
{
    auto &fab = fabric(src);

    if (opts_.batching) {
        // One PCIe crossing carries the payload once plus a destination
        // map (8B per follower).
        std::uint64_t bytes =
            tmpl.sizeBytes + 8u * static_cast<unsigned>(cfg_.followers());
        Message m = tmpl;
        m.destMask = (std::uint64_t{1} << cfg_.numNodes) - 1;
        m.destMask &= ~(std::uint64_t{1} << src);
        toSnic(src, fab.pcieDown.transferFrom(sim_.now(), bytes), m);
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
        toSnic(src, fab.pcieDown.transferFrom(sim_.now(), m.sizeBytes),
               m);
    }
}

void
ClusterO::hostSendControl(NodeId src, const Message &msg)
{
    toSnic(src, fabric(src).pcieDown.transferFrom(sim_.now(),
                                                  msg.sizeBytes),
           msg);
}

void
ClusterO::snicUnicast(const Message &msg)
{
    MINOS_ASSERT(msg.src != msg.dst, "SNIC unicast to self");
    toSnic(msg.dst, fabric(msg.src).nic.send(sim_.now(), msg), msg);
}

void
ClusterO::snicMulticast(const Message &tmpl, bool from_batched)
{
    // Broadcast hardware consumes a batched message directly; without
    // it a batched message pays the per-destination unpack (§VIII-D).
    fabric(tmpl.src).nic.fanOut(sim_.now(), tmpl, from_batched,
                                opts_.broadcast,
                                [this](Tick arrival, const Message &m) {
                                    toSnic(m.dst, arrival, m);
                                });
}

} // namespace minos::snic
