/**
 * @file
 * The simulated MINOS-B cluster: N NodeB hosts joined by the Table II/III
 * fabric (per-node PCIe host<->NIC links, dumb-NIC send engines, and
 * NIC-to-NIC network links).
 *
 * The fabric also implements the message-path variants of the Fig. 12
 * ablation that apply to MINOS-B (batching and broadcast on a dumb NIC):
 *  - plain:       one PCIe crossing + one NIC deposit (+ inter-message
 *                 gap) + one wire serialization per destination;
 *  - batching:    a single PCIe crossing carrying all destinations, then
 *                 per-destination NIC unpack + deposit + wire;
 *  - broadcast:   without batching the host still generates one message
 *                 per destination, so a dumb NIC has nothing to fan out
 *                 and the path is unchanged (the paper finds no
 *                 noticeable effect); with batching, the NIC deposits
 *                 once and the wire carries one copy.
 */

#ifndef MINOS_SIMPROTO_CLUSTER_B_HH
#define MINOS_SIMPROTO_CLUSTER_B_HH

#include "simproto/cluster_shell.hh"
#include "simproto/node_b.hh"

namespace minos::simproto {

/** Per-node MINOS-B fabric. */
struct FabricB
{
    FabricB(sim::Simulator &sim, const ClusterConfig &cfg)
        : pcieOut(sim, cfg.pcieLatencyNs, cfg.pcieBwBytesPerSec,
                  cfg.pcieMsgOverheadNs),
          pcieIn(sim, cfg.pcieLatencyNs, cfg.pcieBwBytesPerSec,
                 cfg.pcieMsgOverheadNs),
          nic(sim, cfg)
    {
    }

    sim::Link pcieOut; ///< host send queue -> NIC
    sim::Link pcieIn;  ///< NIC -> host receive queue
    NicTx nic;         ///< NIC send engine + egress port
};

/** MINOS-B cluster (paper §III/§IV) on the simulated machine. */
class ClusterB : public ClusterShell<NodeB, FabricB>
{
  public:
    /**
     * @param opts message-path options for the ablation study; offload
     *             must be false (that is ClusterO's job).
     */
    ClusterB(sim::Simulator &sim, const ClusterConfig &cfg,
             PersistModel model,
             OffloadOptions opts = OffloadOptions::minosB());

    /** Send @p msg (src/dst filled in) through the full B fabric. */
    void unicast(const net::Message &msg);

    /**
     * Fan @p tmpl out from tmpl.src to every other node, honoring the
     * batching/broadcast options.
     */
    void multicast(const net::Message &tmpl);

  private:
    /** Final delivery: remote PCIe leg + handoff to the dst node. */
    void deliverAt(Tick wire_arrival, const net::Message &msg);
};

} // namespace minos::simproto

#endif // MINOS_SIMPROTO_CLUSTER_B_HH
