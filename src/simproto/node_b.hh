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
 *  4. walk the model's coordinator schedule (models.hh): persist to
 *     the NVM log, wait for the ACK gates, raise glb_volatileTS /
 *     glb_durableTS, release the RDLock if still owner, send the VALs
 *     and answer the client; the walk goes on, detached, past the
 *     answer.
 *
 * The Follower checks obsoleteness, mirrors steps 2-4 and acknowledges
 * (the DdpCore schedules); its RDLock is released by the VAL. The
 * replica state and the Table I primitives live in DdpCore.
 */

#ifndef MINOS_SIMPROTO_NODE_B_HH
#define MINOS_SIMPROTO_NODE_B_HH

#include <vector>

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

    /** Coordinator transactions not yet recycled (tests). */
    std::size_t pendingTxns() const { return pending_.live(); }

    /** Whether a local-write holds @p key's WRLock (tests). */
    bool wrLockHeld(kv::Key key) const { return wrLocks_.at(key); }

  private:
    friend class DdpCore;

    /** Spin-grab @p key's WRLock (local-write mutual exclusion). */
    sim::Task<void> grabWrLock(kv::Key key);
    void releaseWrLock(kv::Key key);

    /** Persist one update into the local NVM log (occupies a core). */
    sim::Task<void> persistToNvm(kv::Key key, kv::Value value,
                                 kv::Timestamp ts);

    /** Persist in the background (weak models / coordinator REnf). */
    void persistLater(kv::Key key, kv::Value value, kv::Timestamp ts,
                      net::ScopeId scope);

    // ---- messaging ----

    /** Respond to a coordinator. */
    sim::Task<void> sendResponse(const net::Message &req,
                                 net::MsgType type, Tick handle_ns);

    // ---- receive-side handlers (DdpCore's receive loop) ----

    sim::Task<void> onInv(net::Message msg, Tick t_handle0);
    sim::Task<void> onAck(net::Message msg, Tick t_rx);
    sim::Task<void> onVal(net::Message msg);
    sim::Task<void> onPersistSc(net::Message msg, Tick t_handle0);

    ClusterB &cluster_;

    /**
     * WRLock per key (paper Fig. 1(a)), one bit each: the lock is
     * MINOS-B state, so it lives here rather than in kv::Record.
     */
    std::vector<bool> wrLocks_;

    /** Writes and [PERSIST]sc transactions in flight, by net::txnOf (a
     *  [PERSIST]sc counts its ACK_P_SCs as acksP). */
    TxnSlab<WriteTxn> pending_;
};

} // namespace minos::simproto

#endif // MINOS_SIMPROTO_NODE_B_HH
