/**
 * @file
 * MINOS-Offload node: the DDP protocols re-designed for the MINOS-O
 * SmartNIC (paper §V, Figs. 6-8).
 *
 * Division of labor per client-write (Fig. 8, <Lin, Synch>):
 *  - Host: process the request, generate TS_WR, Snatch RDLock,
 *    obsoleteness check, send a (batched) INV to the SNIC, spin for the
 *    (batched) ACK -> return to client.
 *  - Coordinator SNIC: broadcast INV to all followers, enqueue the
 *    update to vFIFO and dFIFO, collect ACKs, send the batched ACK to
 *    the host, wait for the vFIFO drain, release the RDLock, send VALs.
 *  - Follower SNIC: obsoleteness check, Snatch RDLock, enqueue to
 *    vFIFO/dFIFO, ACK; on VAL wait for the drain and release the RDLock.
 *    The follower host is never invoked.
 *
 * The WRLock is gone: the vFIFO serializes LLC updates and skips
 * obsolete ones. RDLock_Owner, volatileTS, glb_volatileTS and
 * glb_durableTS live in the selective-coherence range shared by host and
 * SNIC; accesses pay the coherence-module cost instead of a PCIe round
 * trip. The replica state and the Table I primitives live in DdpCore.
 */

#ifndef MINOS_SNIC_NODE_O_HH
#define MINOS_SNIC_NODE_O_HH

#include <unordered_map>

#include "simproto/ddp_core.hh"
#include "simproto/txn_slab.hh"
#include "snic/fifo.hh"

namespace minos::snic {

class ClusterO;

using simproto::ClusterConfig;
using simproto::OffloadOptions;
using simproto::OpStats;
using simproto::PersistModel;

/** One MINOS-O node: host engine + SmartNIC engine. */
class NodeO : public simproto::DdpCore
{
  public:
    NodeO(sim::Simulator &sim, ClusterO &cluster,
          const ClusterConfig &cfg, PersistModel model, kv::NodeId id);

    /** Host-side client-write (Fig. 8 left, host part). */
    sim::Task<OpStats> clientWrite(kv::Key key, kv::Value value,
                                   net::ScopeId scope);

    /** Host side of the [PERSIST]sc transaction (Fig. 7(e)). */
    sim::Task<OpStats> persistScope(net::ScopeId scope);

    /** Deliver a network message into this node's SmartNIC. */
    void deliverToSnic(net::Message msg);

    /** @{ Introspection for tests. */
    /** Transactions not yet recycled (in flight or still held). */
    std::size_t pendingTxns() const { return pending_.live(); }
    const VFifo &vfifo() const { return vfifo_; }
    const DFifo &dfifo() const { return dfifo_; }
    /** @} */

  private:
    /**
     * Per-transaction bookkeeping, shared by host and SNIC engines. It
     * lives in the pending_ slab. The host worker, the SNIC handlers,
     * the completion tail and in-flight PCIe notifications overlap in
     * time and may outlive the index entry, so each takes a TxnHold.
     */
    struct PendingTxn : simproto::WriteTxn
    {
        /// Host-side mirror of the ACKs forwarded over PCIe
        /// (no-batching mode).
        simproto::AckTally host;
        bool hostDone = false;   ///< client gate reached at the host
        bool invProcessed = false; ///< SNIC already did the enqueues
        std::uint64_t vfifoId = noEntry;
        bool vfifoAssigned = false;
        bool dfifoEnqueued = false;
        bool releasedByValC = false; ///< follower: VAL_C processed
        bool gateFired = false; ///< client gate already handled
    };

    using TxnHold = simproto::TxnSlab<PendingTxn>::Hold;

    // ---- SNIC engine ----
    sim::Process snicDispatcher();
    sim::Process snicHandle(net::Message msg);
    sim::Task<void> snicOnCoordinatorInv(net::Message msg);
    sim::Task<void> snicOnFollowerInv(net::Message msg,
                                      Tick t_handle0);
    sim::Task<void> snicOnAck(net::Message msg);
    sim::Task<void> snicOnVal(net::Message msg);
    sim::Task<void> snicOnPersistSc(net::Message msg,
                                    Tick t_handle0);

    /**
     * Coordinator SNIC tail: after the vFIFO drain, release the RDLock
     * and send the consistency VALs; Strict then sends VAL_P once the
     * persistency gate is reached.
     */
    sim::Process snicCompleteWrite(kv::Key key, kv::Timestamp ts,
                                   net::ScopeId scope, TxnHold txn);

    /** Enqueue update into vFIFO (+ dFIFO per model) for txn. */
    sim::Task<void> snicEnqueueUpdate(net::Message msg, TxnHold txn);

    /**
     * Fire the client-gate actions (notify host, raise glb fields,
     * spawn the completion tail) exactly once, as soon as the per-model
     * gate condition holds. Called after every ACK and after the local
     * dFIFO enqueue (which participates in the Strict gate).
     */
    void maybeFireClientGate(kv::Key key, kv::Timestamp ts,
                             net::ScopeId scope, const TxnHold &txn);

    /** Notify the host that the client gate is reached (PCIe). */
    void notifyHostGate(TxnHold txn);

    /** Forward one ACK to the host over PCIe (no-batching mode). */
    void forwardAckToHost(const net::Message &msg, TxnHold txn);

    /** Follower SNIC: acknowledge @p inv with an ACK of @p type. */
    void sendAck(const net::Message &inv, net::MsgType type,
                 Tick handle_ns);

    /** Background dFIFO enqueue for weak models (Event/Scope). */
    void dfifoInBackground(kv::Key key, kv::Value value,
                           kv::Timestamp ts, net::ScopeId scope,
                           std::uint32_t bytes);

    /**
     * The client gate over @p acks: every consistency ACK, and for
     * Strict also every persistency ACK and the local dFIFO enqueue.
     */
    bool clientGateReached(const simproto::AckTally &acks,
                           const PendingTxn &txn) const;

    ClusterO &cluster_;
    sim::CorePool snicCores_;
    sim::Mailbox<net::Message> snicRx_;

    VFifo vfifo_;
    DFifo dfifo_;

    simproto::TxnSlab<PendingTxn> pending_;
    std::unordered_map<net::ScopeId, PendingTxn> scopePending_;
};

} // namespace minos::snic

#endif // MINOS_SNIC_NODE_O_HH
