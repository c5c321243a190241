#include "node_b.hh"

#include "simproto/cluster_b.hh"

#include "nvm/model.hh"
#include "obs/phase.hh"

namespace minos::simproto {

using kv::Key;
using kv::NodeId;
using kv::Record;
using kv::Timestamp;
using kv::Value;
using net::Message;
using net::MsgType;
using net::ScopeId;

NodeB::NodeB(sim::Simulator &sim, ClusterB &cluster,
             const ClusterConfig &cfg, PersistModel model, NodeId id)
    : DdpCore(sim, cfg, model, id), cluster_(cluster),
      wrLocks_(cfg.numRecords)
{
    startDispatcher<NodeB>(hostCores_, cfg_.dispatchNs);
}

// ---------------------------------------------------------------------
// WRLock and host persist (the MINOS-B-only primitives)
// ---------------------------------------------------------------------

sim::Task<void>
NodeB::grabWrLock(Key key)
{
    for (;;) {
        // One CAS attempt costs the host synchronization latency.
        co_await hostCores_.compute(cfg_.hostSyncNs);
        if (!wrLocks_[key]) {
            wrLocks_[key] = true;
            co_return;
        }
        co_await progress_.until([this, key] { return !wrLocks_[key]; });
    }
}

void
NodeB::releaseWrLock(Key key)
{
    wrLocks_[key] = false;
    progress_.notifyAll();
}

sim::Task<void>
NodeB::persistToNvm(Key key, Value value, Timestamp ts)
{
    // The core issues the persist (flush/drain instructions) and then
    // waits for the medium off-core; the event-driven runtime serves
    // other work meanwhile.
    Tick t0 = sim_.now();
    Tick lat = nvm::persistLatency(cfg_.persistNsPerKb, cfg_.recordBytes);
    Tick issue = std::min<Tick>(lat, 200);
    co_await hostCores_.compute(issue);
    co_await sim::delay(lat - issue);
    store_.persist(key, value, ts);
    traceEvent(obs::Category::Protocol, obs::EventKind::PersistDone,
               static_cast<std::int64_t>(key),
               static_cast<std::int64_t>(ts.pack()));
    obs::recordSpan(cfg_.trace, cfg_.phases, obs::Phase::Persist, t0,
                    sim_.now(), id_,
                    static_cast<std::int64_t>(ts.pack()));
}

void
NodeB::persistLater(Key key, Value value, Timestamp ts, ScopeId scope)
{
    persistInBackground(
        scope, [=, this] { return persistToNvm(key, value, ts); },
        [=, this] {
            // The REnf coordinator's steps after Return gate on the
            // local persist completing.
            auto txn = pending_.find(kv::WriteId::of(key, ts));
            if (txn && ts.node == id_) {
                txn->localPersisted = true;
                progress_.notifyAll();
            }
        });
}

// ---------------------------------------------------------------------
// Messaging
// ---------------------------------------------------------------------

sim::Task<void>
NodeB::sendResponse(const Message &req, MsgType type, Tick handle_ns)
{
    // Laid before the tx-path compute: the ACK certifies this node's
    // state at the moment it decides to acknowledge.
    traceAck(obs::EventKind::AckSent, req, type, id_);
    co_await hostCores_.compute(cfg_.hostSendNs);
    cluster_.unicast(makeAck(req, type, handle_ns));
}

// ---------------------------------------------------------------------
// Client-write (Coordinator, Fig. 2 left / Fig. 3 deltas)
// ---------------------------------------------------------------------

sim::Task<OpStats>
NodeB::clientWrite(Key key, Value value, ScopeId scope)
{
    Tick t0 = sim_.now();
    co_await hostCores_.compute(cfg_.clientReqNs);
    Record &rec = store_.at(key);
    Timestamp ts = beginWrite(key, rec);

    // Line 8: Snatch RDLock (one CAS).
    Tick t_lock0 = sim_.now();
    co_await hostCores_.compute(cfg_.hostSyncNs);
    snatchRdLock(rec, ts);

    // Line 9: grab WRLock (spin).
    co_await grabWrLock(key);
    Tick t_lock1 = sim_.now();

    // Line 10: final timestamp check under the WRLock. Lines 15-16:
    // release the WRLock first, then handleObsolete.
    if (kv::isObsolete(rec, ts)) {
        releaseWrLock(key);
        co_return co_await cutObsoleteWrite(t0, rec, key, ts,
                                            rec.volatileTs);
    }

    auto txn = pending_.insert(kv::WriteId::of(key, ts));
    MINOS_ASSERT(txn, "duplicate TS_WR ", ts);

    // Line 11: send INVs to all Followers.
    co_await hostCores_.compute(
        cluster_.options().batching ? cfg_.hostSendNs
                                    : cfg_.hostSendNs * cfg_.followers());
    txn->tFirstSend = sim_.now();
    cluster_.multicast(makeInv(key, value, ts, scope));
    obs::recordSpan(cfg_.trace, cfg_.phases, obs::Phase::LockWait,
                    t_lock0, t_lock1, id_,
                    static_cast<std::int64_t>(ts.pack()));
    obs::recordSpan(cfg_.trace, cfg_.phases, obs::Phase::InvFanout,
                    t_lock1, txn->tFirstSend, id_,
                    static_cast<std::int64_t>(ts.pack()));

    // Line 12: update local volatile state (LLC) + volatileTS.
    co_await hostCores_.compute(cfg_.llcWriteNs);
    store_.apply(rec, key, value, ts);
    progress_.notifyAll();

    // Line 13: release WRLock.
    releaseWrLock(key);

    // Lines 18-22 / Fig. 3 steps d-f: the model's coordinator schedule.
    // Return answers the client; the steps after it run detached.
    OpStats st;
    Tick t_gate = 0;
    for (const CoordinatorStep *s = coordinatorSteps_.begin();
         s != coordinatorSteps_.end(); ++s) {
        if (*s == CoordinatorStep::Persist) {
            co_await persistToNvm(key, value, ts);
            txn->localPersisted = true;
        } else if (*s == CoordinatorStep::PersistLater) {
            persistLater(key, value, ts, scope);
        } else if (CoordinatorSchedule::isAwait(*s)) {
            co_await progress_.until(
                [this, &t = *txn, gate = coordinatorSteps_.gateOf(s)] {
                    return gateHolds(gate, t);
                });
            if (*s == CoordinatorStep::AwaitAcksC)
                t_gate = sim_.now();
        } else if (*s == CoordinatorStep::SendVal ||
                   *s == CoordinatorStep::SendValP) {
            co_await hostCores_.compute(cfg_.hostSendNs *
                                        cfg_.followers());
            cluster_.multicast(makeVal(valOf(model_, *s), key, ts, scope));
        } else if (*s == CoordinatorStep::Return) {
            // Spans for the gather/completion phases; every timestamp
            // was taken at an await point the protocol already had, so
            // recording them never moves simulated time.
            if (cfg_.trace || cfg_.phases) {
                auto token = static_cast<std::int64_t>(ts.pack());
                if (txn->tGateAck >= txn->tFirstSend && txn->handleCnt > 0)
                    obs::recordSpan(cfg_.trace, cfg_.phases,
                                    obs::Phase::AckGather, txn->tFirstSend,
                                    txn->tGateAck, id_, token);
                obs::recordSpan(cfg_.trace, cfg_.phases, obs::Phase::Val,
                                t_gate, sim_.now(), id_, token);
            }
            st = finishOp(st, t0, obs::OpType::Write,
                          static_cast<std::int64_t>(key),
                          static_cast<std::int64_t>(ts.pack()), &*txn);
            if (s + 1 != coordinatorSteps_.end())
                co_await sim::detach(st);
        } else {
            runCoordinatorStep(*s, rec, key, ts);
        }
    }
    pending_.erase(kv::WriteId::of(key, ts));
    co_return st;
}

// ---------------------------------------------------------------------
// [PERSIST]sc transaction (<Lin, Scope>, paper §III-C)
// ---------------------------------------------------------------------

sim::Task<OpStats>
NodeB::persistScope(ScopeId scope)
{
    Tick t0 = sim_.now();
    if (!isScopeModel(model_))
        co_return OpStats{};
    co_await beginPersistScope(scope);
    auto txn = pending_.insert(kv::WriteId::ofScope(scope));
    MINOS_ASSERT(txn, "duplicate [PERSIST]sc for scope ", scope);

    // Send [PERSIST]sc to all followers.
    co_await hostCores_.compute(cfg_.hostSendNs * cfg_.followers());
    cluster_.multicast(net::makePersistSc(id_, scope));

    // Complete persisting all local WRs inside the scope, then the
    // [PERSIST]sc marker itself.
    co_await scopeFlushed(scope);
    co_await hostCores_.compute(
        nvm::persistLatency(cfg_.persistNsPerKb, net::controlMsgBytes));

    // Spin for all [ACK_P]sc, then send [VAL_P]sc.
    co_await progress_.until(
        [&] { return txn->acksP >= cfg_.followers(); });
    co_await hostCores_.compute(cfg_.hostSendNs * cfg_.followers());
    cluster_.multicast(
        makeVal(MsgType::VAL_P_SC, 0, Timestamp::none(), scope));
    pending_.erase(kv::WriteId::ofScope(scope));

    co_return finishOp(OpStats{}, t0, obs::OpType::PersistSc,
                       static_cast<std::int64_t>(scope), 0);
}

// ---------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------

sim::Task<void>
NodeB::onInv(Message msg, Tick t_handle0)
{
    ++counters_.invsReceived;
    Record &rec = store_.at(msg.key);

    // Lines 27-30 cut an INV that is already obsolete short; otherwise
    // lines 31-34 snatch the RDLock, grab the WRLock and re-check.
    bool cut = kv::isObsolete(rec, msg.tsWr);
    if (!cut) {
        co_await hostCores_.compute(cfg_.hostSyncNs);
        snatchRdLock(rec, msg.tsWr);
        co_await grabWrLock(msg.key);
        cut = kv::isObsolete(rec, msg.tsWr);
        if (cut)
            releaseWrLock(msg.key);
    }
    if (cut) {
        // Spin as required, then ACK as if the write was performed; the
        // VAL received later is discarded.
        co_await ackObsoleteInv(
            msg, t_handle0, rec.volatileTs,
            [&](MsgType type, Tick handle_ns) {
                return sendResponse(msg, type, handle_ns);
            });
        // If we snatched before discovering obsoleteness and the newer
        // write already came and went, we are a stale owner — release so
        // local reads are not blocked forever.
        releaseRdLockIfOwner(rec, msg.key, msg.tsWr);
        co_return;
    }

    // Lines 35-37: update the LLC copy.
    co_await hostCores_.compute(cfg_.llcWriteNs);
    store_.apply(rec, msg.key, msg.value, msg.tsWr);
    traceEvent(obs::Category::Protocol, obs::EventKind::InvApplied,
               static_cast<std::int64_t>(msg.key),
               static_cast<std::int64_t>(msg.tsWr.pack()));
    progress_.notifyAll();
    releaseWrLock(msg.key);

    // Lines 39-40 / Fig. 3 follower deltas: persist + acknowledge.
    for (FollowerStep s : appliedSteps_) {
        switch (s) {
          case FollowerStep::AckC:
          case FollowerStep::AckP:
            co_await sendResponse(msg, ackOf(model_, s),
                                  sim_.now() - t_handle0);
            break;
          case FollowerStep::Persist:
            co_await persistToNvm(msg.key, msg.value, msg.tsWr);
            break;
          case FollowerStep::PersistLater:
            persistLater(msg.key, msg.value, msg.tsWr, msg.scope);
            break;
          default:
            break;
        }
    }
}

sim::Task<void>
NodeB::onAck(Message msg, Tick t_rx)
{
    co_await hostCores_.compute(cfg_.bookkeepNs);
    auto txn = tallyAck(pending_, msg);
    if (!txn)
        co_return;
    // The ACK family that gates the client response for this model
    // times the communication window, which ends when the ACK reaches
    // the host receive queue (paper SIV), not when this handler runs.
    MsgType gate = returnGate_.acksP ? MsgType::ACK_P : ackCType(model_);
    if (msg.type == gate) {
        txn->tGateAck = t_rx;
        txn->addHandle(msg.handleNs);
    }
    progress_.notifyAll();
}

sim::Task<void>
NodeB::onVal(Message msg)
{
    co_await hostCores_.compute(cfg_.bookkeepNs);
    Record &rec = store_.at(msg.key);
    raiseGlbForVal(rec, msg);
    if (valEffect(msg.type).releasesRdLock)
        releaseRdLockIfOwner(rec, msg.key, msg.tsWr);
}

sim::Task<void>
NodeB::onPersistSc(Message msg, Tick t_handle0)
{
    // Complete persisting all WRs of the scope, persist the [PERSIST]sc
    // itself, then acknowledge. The ackBeforePersist mutation skips the
    // scope-flush wait, certifying durability the node does not have.
    if (!cfg_.mutations.ackBeforePersist)
        co_await scopeFlushed(msg.scope);
    co_await hostCores_.compute(
        nvm::persistLatency(cfg_.persistNsPerKb, net::controlMsgBytes));
    co_await sendResponse(msg, MsgType::ACK_P_SC, sim_.now() - t_handle0);
}

} // namespace minos::simproto
