/**
 * @file
 * The simulated MINOS-O cluster: NodeO hosts+SmartNICs joined by the
 * Table III fabric. Unlike MINOS-B, protocol messages travel
 * SNIC-to-SNIC without crossing the remote PCIe: only the coordinator's
 * host touches PCIe (batched INV down, batched ACK up), which is the
 * heart of the offload win.
 *
 * The fabric honors the Fig. 12 ablation toggles:
 *  - batching: host->SNIC INV and SNIC->host ACK each become a single
 *    PCIe message instead of one per follower;
 *  - broadcast: the SNIC deposits an INV/VAL once and a hardware FSM
 *    fans it out (one wire serialization); without it, each copy pays
 *    the deposit cost, the inter-message gap, and its own serialization
 *    — and a batched INV must additionally be unpacked per destination
 *    (the reason Combined+batching is *slower* than Combined alone).
 */

#ifndef MINOS_SNIC_CLUSTER_O_HH
#define MINOS_SNIC_CLUSTER_O_HH

#include "simproto/cluster_shell.hh"
#include "snic/node_o.hh"

namespace minos::snic {

/** Per-node MINOS-O fabric. */
struct FabricO
{
    FabricO(sim::Simulator &sim, const ClusterConfig &cfg)
        : pcieDown(sim, cfg.pcieLatencyNs, cfg.pcieBwBytesPerSec,
                   cfg.pcieMsgOverheadNs),
          pcieUp(sim, cfg.pcieLatencyNs, cfg.pcieBwBytesPerSec,
                 cfg.pcieMsgOverheadNs),
          // The drain engines stream descriptors in bursts; the
          // per-transfer overhead is far below the doorbell cost of
          // host-posted messages.
          pcieDmaV(sim, cfg.pcieLatencyNs, cfg.pcieBwBytesPerSec,
                   /*per_msg_overhead=*/30),
          pcieDmaD(sim, cfg.pcieLatencyNs, cfg.pcieBwBytesPerSec,
                   /*per_msg_overhead=*/30),
          nic(sim, cfg)
    {
    }

    sim::Link pcieDown;      ///< host -> SNIC
    sim::Link pcieUp;        ///< SNIC -> host messages
    sim::Link pcieDmaV;      ///< vFIFO drain DMA queue
    sim::Link pcieDmaD;      ///< dFIFO drain DMA queue
    simproto::NicTx nic;     ///< SNIC send engine + egress port
};

/** MINOS-O cluster (paper §V) on the simulated machine. */
class ClusterO : public simproto::ClusterShell<NodeO, FabricO>
{
  public:
    ClusterO(sim::Simulator &sim, const ClusterConfig &cfg,
             PersistModel model,
             OffloadOptions opts = OffloadOptions::minosO());

    /** Host -> local SNIC: send the INV(s) for one write over PCIe. */
    void hostSendInv(kv::NodeId src, const net::Message &tmpl);

    /** Host -> local SNIC: send a control message (e.g. [PERSIST]sc). */
    void hostSendControl(kv::NodeId src, const net::Message &msg);

    /** SNIC -> SNIC point-to-point (ACK family). */
    void snicUnicast(const net::Message &msg);

    /**
     * SNIC of tmpl.src -> all other SNICs (INV/VAL family).
     * @param from_batched the message arrived batched from the host and
     *        must be unpacked per destination unless broadcast hardware
     *        consumes it directly.
     */
    void snicMulticast(const net::Message &tmpl, bool from_batched);

    /** SNIC -> local host over PCIe; @p deliver runs at arrival. */
    void snicNotifyHost(kv::NodeId src, std::uint32_t bytes,
                        sim::EventFn deliver);

    /** @{ The SNIC->host DMA queues used by the FIFO drain engines. */
    sim::Link &vfifoDma(kv::NodeId id) { return fabric(id).pcieDmaV; }
    sim::Link &dfifoDma(kv::NodeId id) { return fabric(id).pcieDmaD; }
    /** @} */

  private:
    /** Hand @p msg to the SNIC of node @p id at tick @p at. */
    void toSnic(kv::NodeId id, Tick at, const net::Message &msg);
};

} // namespace minos::snic

#endif // MINOS_SNIC_CLUSTER_O_HH
