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
 *    It walks the coordinator schedule of models.hh: at each gate it
 *    raises the glb fields and answers the host (Return); the RDLock
 *    release, the VALs and any gate between them run after the drain.
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

    /** @{
     * NodeO's split of the coordinator schedule: the glb raises and
     * Return (the host notification) run at their gate; from
     * valTailOf() on, the RDLock release, the VALs and the gates
     * between them run in snicCompleteWrite after the vFIFO drain.
     */
    static constexpr bool
    runsAtGate(simproto::CoordinatorStep s)
    {
        return s == simproto::CoordinatorStep::RaiseGlbVolatile ||
               s == simproto::CoordinatorStep::RaiseGlbDurable ||
               s == simproto::CoordinatorStep::Return;
    }

    static constexpr const simproto::CoordinatorStep *
    valTailOf(const simproto::CoordinatorSchedule &sched)
    {
        const simproto::CoordinatorStep *s = sched.segmentEnd(sched.begin());
        while (s != sched.end() &&
               (runsAtGate(*s) || simproto::CoordinatorSchedule::isAwait(*s)))
            ++s;
        return s;
    }
    /** @} */

    /** @{ Introspection for tests. */
    /** Transactions not yet recycled (in flight or still held). */
    std::size_t pendingTxns() const { return pending_.live(); }
    const VFifo &vfifo() const { return vfifo_; }
    const DFifo &dfifo() const { return dfifo_; }
    /** @} */

  private:
    friend class simproto::DdpCore;

    /**
     * Per-transaction bookkeeping, shared by host and SNIC engines: a
     * write's, or a [PERSIST]sc's (its ACK tally, hostDone and
     * waitKey). It lives in the pending_ slab. The host worker, the
     * SNIC handlers, the completion tail and in-flight PCIe
     * notifications overlap in time and may outlive the index entry,
     * so each takes a TxnHold.
     */
    struct PendingTxn : simproto::WriteTxn
    {
        /// Host-side mirror of the ACKs forwarded over PCIe
        /// (no-batching mode).
        simproto::AckTally host;
        bool hostDone = false;   ///< client gate reached at the host
        bool invProcessed = false; ///< SNIC already did the enqueues
        std::uint64_t vfifoId = noEntry; ///< set by the vFIFO enqueue
        bool releasedByValC = false; ///< follower: VAL_C processed
        /// Coordinator: the next Await of the schedule whose segment
        /// has not run (its end once all have).
        const simproto::CoordinatorStep *gate = nullptr;
        /**
         * Keys of the progress_ waits that read only this transaction;
         * whoever changes a field they read fires the key at once.
         * waitKey: the host gate, vfifoId and releasedByValC.
         * acksKey: Strict's VAL_P gate, which reads the ACK tally (kept
         * apart so that ACKs do not re-test the other waits).
         */
        sim::WaitKey waitKey;
        sim::WaitKey acksKey;
    };

    using TxnHold = simproto::TxnSlab<PendingTxn>::Hold;

    // ---- SNIC engine (DdpCore's receive loop) ----
    sim::Task<void> onInv(net::Message msg, Tick t_rx);
    sim::Task<void> onCoordinatorInv(net::Message msg);
    sim::Task<void> onFollowerInv(net::Message msg, Tick t_handle0);
    sim::Task<void> onAck(net::Message msg, Tick t_rx);
    sim::Task<void> onVal(net::Message msg);
    sim::Task<void> onPersistSc(net::Message msg, Tick t_handle0);

    /**
     * Coordinator SNIC VAL tail: after the vFIFO drain, walk the
     * schedule from valTail_: release the RDLock, send the VALs and wait
     * at the gates between them (Strict's VAL_P waits for every ACK_P).
     */
    sim::Process snicCompleteWrite(kv::Key key, kv::Timestamp ts,
                                   net::ScopeId scope, TxnHold txn);

    /** Enqueue update into vFIFO (+ dFIFO per model) for txn. */
    sim::Task<void> snicEnqueueUpdate(net::Message msg, TxnHold txn);

    /**
     * Run every segment of the coordinator schedule whose gate now
     * holds, once each and in order: raise the glb fields, notify the
     * host at Return (with batching) and spawn the VAL tail from the
     * segment that holds its start. Called after every ACK and after
     * the local dFIFO enqueue (which the glb_durableTS gates include).
     */
    void runGates(kv::Key key, kv::Timestamp ts, net::ScopeId scope,
                  const TxnHold &txn);

    /** Notify the host that the client gate is reached (PCIe). */
    void notifyHostGate(TxnHold txn);

    /** Forward one ACK to the host over PCIe (no-batching mode). */
    void forwardAckToHost(const net::Message &msg, TxnHold txn);

    /** Follower SNIC: acknowledge @p inv with an ACK of @p type. */
    void sendAck(const net::Message &inv, net::MsgType type,
                 Tick handle_ns);

    /** Background dFIFO enqueue for weak models (Event/Scope). */
    void persistLater(kv::Key key, kv::Value value, kv::Timestamp ts,
                      net::ScopeId scope);

    ClusterO &cluster_;
    sim::CorePool snicCores_;

    VFifo vfifo_;
    DFifo dfifo_;
    /** Where snicCompleteWrite starts (valTailOf). */
    const simproto::CoordinatorStep *const valTail_;

    /** Writes and [PERSIST]sc transactions in flight, by net::txnOf. */
    simproto::TxnSlab<PendingTxn> pending_;
};

} // namespace minos::snic

#endif // MINOS_SNIC_NODE_O_HH
