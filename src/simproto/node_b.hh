/**
 * @file
 * MINOS-Baseline node: the detailed leaderless DDP write/read algorithms
 * of paper §III running on the host CPU (Fig. 2 for <Lin, Synch>, Fig. 3
 * deltas for the other persistency models).
 *
 * Protocol structure per client-write (Coordinator):
 *  1. generate TS_WR from the local record's volatileTS (newer than the
 *     local copy by construction, so never obsolete yet);
 *  2. Snatch RDLock; grab WRLock; obsoleteness check ->
 *     handleObsolete() (ConsistencySpin + PersistencySpin) and return;
 *  3. send INVs to all Followers, update the local LLC copy, release
 *     WRLock;
 *  4. persist to the NVM log (critical path only for Synch/Strict);
 *  5. wait for the per-model ACK set; raise glb_volatileTS /
 *     glb_durableTS; release RDLock if still owner; send VALs.
 *
 * The Follower checks obsoleteness, mirrors steps 2-4 and acknowledges
 * (the DdpCore schedules); its RDLock is released by the VAL. The
 * replica state and the Table I primitives live in DdpCore.
 */

#ifndef MINOS_SIMPROTO_NODE_B_HH
#define MINOS_SIMPROTO_NODE_B_HH

#include <unordered_map>

#include "nvm/model.hh"
#include "simproto/ddp_core.hh"
#include "simproto/txn_slab.hh"

namespace minos::simproto {

class ClusterB;

/** One MINOS-B node: host CPU protocol engine + dumb NIC. */
class NodeB : public DdpCore
{
  public:
    NodeB(sim::Simulator &sim, ClusterB &cluster,
          const ClusterConfig &cfg, PersistModel model, kv::NodeId id);

    /** Coordinator client-write algorithm (Fig. 2 left / Fig. 3). */
    sim::Task<OpStats> clientWrite(kv::Key key, kv::Value value,
                                   net::ScopeId scope);

    /** Coordinator side of the [PERSIST]sc transaction (<Lin,Scope>). */
    sim::Task<OpStats> persistScope(net::ScopeId scope);

    /** Deliver a message into this node's host receive queue. */
    void deliver(net::Message msg);

    /** Coordinator transactions not yet recycled (tests). */
    std::size_t pendingTxns() const { return pending_.live(); }

  private:
    /** Coordinator-side bookkeeping for one outstanding client-write. */
    struct PendingTxn : WriteTxn
    {
        bool localPersistDone = false; ///< coordinator's own persist
    };

    /** Spin-grab the WRLock (local-write mutual exclusion). */
    sim::Task<void> grabWrLock(kv::Record &rec);
    void releaseWrLock(kv::Record &rec);

    /** Persist one update into the local NVM log (occupies a core). */
    sim::Task<void> persistToNvm(kv::Key key, kv::Value value,
                                 kv::Timestamp ts);

    /** Launch a background persist (weak models / coordinator REnf). */
    void persistInBackground(kv::Key key, kv::Value value,
                             kv::Timestamp ts, net::ScopeId scope);

    // ---- messaging ----

    /** Respond to a coordinator. */
    sim::Task<void> sendResponse(const net::Message &req,
                                 net::MsgType type, Tick handle_ns);

    // ---- receive-side handlers ----

    sim::Process dispatcher();
    sim::Process handleMessage(net::Message msg);
    sim::Task<void> onInv(net::Message msg, Tick t_handle0);
    sim::Task<void> onAck(net::Message msg, Tick t_rx);
    sim::Task<void> onVal(net::Message msg);
    sim::Task<void> onPersistSc(net::Message msg, Tick t_handle0);

    /** Background tail of the REnf coordinator (post-ACK_C work). */
    sim::Process renfTail(kv::Key key, kv::Timestamp ts);

    ClusterB &cluster_;
    nvm::NvmModel nvm_;
    sim::Mailbox<net::Message> rx_;

    TxnSlab<PendingTxn> pending_;
    /** [PERSIST]sc transactions in flight, keyed by scope. */
    std::unordered_map<net::ScopeId, AckTally> scopePending_;
};

} // namespace minos::simproto

#endif // MINOS_SIMPROTO_NODE_B_HH
