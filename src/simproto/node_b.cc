#include "node_b.hh"

#include "simproto/cluster_b.hh"

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
      nvm_(cfg.persistNsPerKb), rx_(sim)
{
    sim_.spawn(dispatcher());
}

// ---------------------------------------------------------------------
// WRLock and host persist (the MINOS-B-only primitives)
// ---------------------------------------------------------------------

sim::Task<void>
NodeB::grabWrLock(Record &rec)
{
    for (;;) {
        // One CAS attempt costs the host synchronization latency.
        co_await hostCores_.compute(cfg_.hostSyncNs);
        if (!rec.wrLock) {
            rec.wrLock = true;
            co_return;
        }
        co_await progress_.until([&] { return !rec.wrLock; });
    }
}

void
NodeB::releaseWrLock(Record &rec)
{
    rec.wrLock = false;
    progress_.notifyAll();
}

sim::Task<void>
NodeB::persistToNvm(Key key, Value value, Timestamp ts)
{
    // The core issues the persist (flush/drain instructions) and then
    // waits for the medium off-core; the event-driven runtime serves
    // other work meanwhile.
    Tick t0 = sim_.now();
    Tick lat = nvm_.persistLatency(cfg_.recordBytes);
    Tick issue = std::min<Tick>(lat, 200);
    co_await hostCores_.compute(issue);
    co_await sim::delay(lat - issue);
    log_.append({key, value, ts});
    ++counters_.persists;
    traceEvent(obs::Category::Protocol, obs::EventKind::PersistDone,
               static_cast<std::int64_t>(key),
               static_cast<std::int64_t>(ts.pack()));
    obs::recordSpan(cfg_.trace, cfg_.phases, obs::Phase::Persist, t0,
                    sim_.now(), id_,
                    static_cast<std::int64_t>(ts.pack()));
}

void
NodeB::persistInBackground(Key key, Value value, Timestamp ts,
                           ScopeId scope)
{
    beginScopedPersist(scope);
    struct Launcher
    {
        static sim::Process
        run(NodeB *self, Key key, Value value, Timestamp ts,
            ScopeId scope)
        {
            co_await self->persistToNvm(key, value, ts);
            self->endScopedPersist(scope);
            // The REnf coordinator's background tail gates on the local
            // persist completing.
            auto txn = self->pending_.find(txnKey(key, ts));
            if (txn && ts.node == self->id_) {
                txn->localPersistDone = true;
                self->progress_.notifyAll();
            }
        }
    };
    sim_.spawn(Launcher::run(this, key, value, ts, scope));
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

void
NodeB::deliver(Message msg)
{
    rx_.send(std::move(msg));
}

// ---------------------------------------------------------------------
// Client-write (Coordinator, Fig. 2 left / Fig. 3 deltas)
// ---------------------------------------------------------------------

sim::Task<OpStats>
NodeB::clientWrite(Key key, Value value, ScopeId scope)
{
    OpStats st;
    Tick t0 = sim_.now();
    ++counters_.writesCoordinated;
    co_await hostCores_.compute(cfg_.clientReqNs);

    Record &rec = store_.at(key);
    Timestamp ts = makeWriteTs(key, rec);
    traceEvent(obs::Category::Protocol, obs::EventKind::ClientOpBegin,
               static_cast<std::int64_t>(key),
               static_cast<std::int64_t>(ts.pack()),
               obs::opAux(obs::OpType::Write, false));

    // Line 8: Snatch RDLock (one CAS).
    Tick t_lock0 = sim_.now();
    co_await hostCores_.compute(cfg_.hostSyncNs);
    snatchRdLock(rec, ts);

    // Line 9: grab WRLock (spin).
    co_await grabWrLock(rec);
    Tick t_lock1 = sim_.now();

    // Line 10: final timestamp check under the WRLock.
    if (kv::isObsolete(rec, ts)) {
        st.obsolete = true;
        ++counters_.writesObsoleteCut;
        traceObsolete(key, ts);
        Timestamp observed = rec.volatileTs;
        // Lines 15-16: release WRLock first, then handleObsolete.
        releaseWrLock(rec);
        co_await handleObsolete(key, observed);
        // Lines 20-21 apply on this path too: if the (already complete)
        // newer write released the RDLock before our snatch, we may be a
        // stale owner; release so reads are not blocked forever.
        releaseRdLockIfOwner(rec, key, ts);
        co_return finishOp(st, t0, obs::OpType::Write,
                           static_cast<std::int64_t>(key),
                           static_cast<std::int64_t>(ts.pack()));
    }

    auto txn = pending_.insert(txnKey(key, ts));
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
    rec.value = value;
    rec.volatileTs = ts;
    progress_.notifyAll();

    // Line 13: release WRLock.
    releaseWrLock(rec);

    if (cfg_.mutations.releaseRdLockEarly)
        releaseRdLockIfOwner(rec, key, ts);

    // Line 18 / Fig. 3 step d: persist to NVM (critical path only for
    // Synch and Strict; background otherwise).
    if (persistOnCriticalPath(model_)) {
        co_await persistToNvm(key, value, ts);
        txn->localPersistDone = true;
    } else {
        persistInBackground(key, value, ts, scope);
    }

    // Line 19 / Fig. 3 step e: wait for the gating consistency ACKs
    // (the combined ACKs for Synch).
    co_await progress_.until([&] { return consistencyGate(*txn); });
    Tick t_gate = sim_.now();

    // Post-gate per-model completion (Fig. 2 lines 20-22, Fig. 3 f).
    raiseGlbVolatile(rec, key, ts);
    if (model_ == PersistModel::Synch)
        raiseGlbDurable(rec, key, ts);
    if (model_ == PersistModel::REnf) {
        // Return to the client after all ACK_Cs; the RDLock stays held
        // and VALs go out when all ACK_Ps have arrived (Fig. 3(iii)).
        sim_.spawn(renfTail(key, ts));
    } else {
        releaseRdLockIfOwner(rec, key, ts);
        co_await hostCores_.compute(cfg_.hostSendNs * cfg_.followers());
        cluster_.multicast(makeVal(valCType(model_), key, ts, scope));
        if (model_ == PersistModel::Strict) {
            // VAL_P strictly after VAL_C, once every ACK_P is in
            // (Fig. 3(i) step f).
            co_await progress_.until([&] {
                return persistencyGate(*txn) && txn->localPersistDone;
            });
            raiseGlbDurable(rec, key, ts);
            co_await hostCores_.compute(cfg_.hostSendNs *
                                        cfg_.followers());
            cluster_.multicast(makeVal(MsgType::VAL_P, key, ts, scope));
        }
    }
    // Retire the txn; our hold keeps its timing fields for the
    // comm/comp split.
    if (model_ != PersistModel::REnf)
        pending_.erase(txnKey(key, ts));

    // Spans for the gather/completion phases; every timestamp was taken
    // at an await point the protocol already had, so recording them
    // never moves simulated time.
    if (cfg_.trace || cfg_.phases) {
        auto token = static_cast<std::int64_t>(ts.pack());
        if (txn->tGateAck >= txn->tFirstSend && txn->handleCnt > 0)
            obs::recordSpan(cfg_.trace, cfg_.phases,
                            obs::Phase::AckGather, txn->tFirstSend,
                            txn->tGateAck, id_, token);
        obs::recordSpan(cfg_.trace, cfg_.phases, obs::Phase::Val,
                        t_gate, sim_.now(), id_, token);
    }

    co_return finishOp(st, t0, obs::OpType::Write,
                       static_cast<std::int64_t>(key),
                       static_cast<std::int64_t>(ts.pack()), &*txn);
}

sim::Process
NodeB::renfTail(Key key, Timestamp ts)
{
    Record &rec = store_.at(key);
    auto txn = pending_.find(txnKey(key, ts));
    MINOS_ASSERT(txn, "REnf tail without pending txn");
    co_await progress_.until(
        [&] { return persistencyGate(*txn) && txn->localPersistDone; });
    raiseGlbDurable(rec, key, ts);
    releaseRdLockIfOwner(rec, key, ts);
    co_await hostCores_.compute(cfg_.hostSendNs * cfg_.followers());
    cluster_.multicast(makeVal(MsgType::VAL, key, ts, /*scope=*/0));
    pending_.erase(txnKey(key, ts));
}

// ---------------------------------------------------------------------
// [PERSIST]sc transaction (<Lin, Scope>, paper §III-C)
// ---------------------------------------------------------------------

sim::Task<OpStats>
NodeB::persistScope(ScopeId scope)
{
    OpStats st;
    Tick t0 = sim_.now();
    if (!isScopeModel(model_))
        co_return st;

    traceEvent(obs::Category::Protocol, obs::EventKind::ClientOpBegin,
               static_cast<std::int64_t>(scope), 0,
               obs::opAux(obs::OpType::PersistSc, false));
    co_await hostCores_.compute(cfg_.clientReqNs);
    auto [it, inserted] = scopePending_.emplace(scope, AckTally{});
    MINOS_ASSERT(inserted, "duplicate [PERSIST]sc for scope ", scope);
    AckTally &txn = it->second;

    // Send [PERSIST]sc to all followers.
    co_await hostCores_.compute(cfg_.hostSendNs * cfg_.followers());
    Message m;
    m.type = MsgType::PERSIST_SC;
    m.src = id_;
    m.scope = scope;
    m.sizeBytes = net::controlMsgBytes;
    cluster_.multicast(m);

    // Complete persisting all local WRs inside the scope, then the
    // [PERSIST]sc marker itself.
    co_await scopeFlushed(scope);
    co_await hostCores_.compute(nvm_.persistLatency(net::controlMsgBytes));

    // Spin for all [ACK_P]sc, then send [VAL_P]sc.
    co_await progress_.until(
        [&] { return txn.acksP >= cfg_.followers(); });
    co_await hostCores_.compute(cfg_.hostSendNs * cfg_.followers());
    cluster_.multicast(
        makeVal(MsgType::VAL_P_SC, 0, Timestamp::none(), scope));
    scopePending_.erase(scope);

    co_return finishOp(st, t0, obs::OpType::PersistSc,
                       static_cast<std::int64_t>(scope), 0);
}

// ---------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------

sim::Process
NodeB::dispatcher()
{
    for (;;) {
        Message m = co_await rx_.recv();
        sim_.spawn(handleMessage(std::move(m)));
    }
}

sim::Process
NodeB::handleMessage(Message msg)
{
    // Handling time starts when the message sits in the host receive
    // queue (paper SIV's communication/computation boundary).
    Tick t_rx = sim_.now();
    co_await hostCores_.compute(cfg_.dispatchNs);
    switch (msg.type) {
      case MsgType::INV:
      case MsgType::INV_SC:
        ++counters_.invsReceived;
        co_await onInv(msg, t_rx);
        break;
      case MsgType::ACK:
      case MsgType::ACK_C:
      case MsgType::ACK_P:
      case MsgType::ACK_C_SC:
      case MsgType::ACK_P_SC:
        ++counters_.acksReceived;
        co_await onAck(msg, t_rx);
        break;
      case MsgType::VAL:
      case MsgType::VAL_C:
      case MsgType::VAL_P:
      case MsgType::VAL_C_SC:
      case MsgType::VAL_P_SC:
        ++counters_.valsReceived;
        co_await onVal(msg);
        break;
      case MsgType::PERSIST_SC:
        co_await onPersistSc(msg, t_rx);
        break;
    }
}

sim::Task<void>
NodeB::onInv(Message msg, Tick t_handle0)
{
    Record &rec = store_.at(msg.key);

    // Lines 27-30 cut an INV that is already obsolete short; otherwise
    // lines 31-34 snatch the RDLock, grab the WRLock and re-check.
    bool cut = kv::isObsolete(rec, msg.tsWr);
    if (!cut) {
        co_await hostCores_.compute(cfg_.hostSyncNs);
        snatchRdLock(rec, msg.tsWr);
        co_await grabWrLock(rec);
        cut = kv::isObsolete(rec, msg.tsWr);
        if (cut)
            releaseWrLock(rec);
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
    rec.value = msg.value;
    rec.volatileTs = msg.tsWr;
    traceEvent(obs::Category::Protocol, obs::EventKind::InvApplied,
               static_cast<std::int64_t>(msg.key),
               static_cast<std::int64_t>(msg.tsWr.pack()));
    progress_.notifyAll();
    releaseWrLock(rec);

    // Lines 39-40 / Fig. 3 follower deltas: persist + acknowledge.
    for (FollowerStep s : appliedSteps_) {
        switch (s) {
          case FollowerStep::AckC:
          case FollowerStep::AckP:
            co_await sendResponse(msg, ackOf(s), sim_.now() - t_handle0);
            break;
          case FollowerStep::Persist:
            co_await persistToNvm(msg.key, msg.value, msg.tsWr);
            break;
          case FollowerStep::PersistLater:
            persistInBackground(msg.key, msg.value, msg.tsWr, msg.scope);
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
    // Recorded before the pending-table lookups so stray ACKs (for
    // already-retired transactions) are still visible to the auditors.
    traceAck(obs::EventKind::AckReceived, msg, msg.type, msg.src);
    if (msg.type == MsgType::ACK_P_SC) {
        // [PERSIST]sc acknowledgement.
        auto it = scopePending_.find(msg.scope);
        if (it != scopePending_.end()) {
            it->second.add(msg.type);
            progress_.notifyAll();
        }
        co_return;
    }

    auto txn = pending_.find(txnKey(msg.key, msg.tsWr));
    if (!txn)
        co_return; // stray ACK for a completed transaction
    if (!txn->add(msg.type))
        MINOS_PANIC("unexpected ACK type ", net::msgTypeName(msg.type));
    // The ACK family that gates the client response for this model
    // times the communication window, which ends when the ACK reaches
    // the host receive queue (paper SIV), not when this handler runs.
    MsgType gate = model_ == PersistModel::Strict ? MsgType::ACK_P
                                                  : ackCType(model_);
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
    // VAL (Synch, REnf) and the VAL_C flavors validate the write and free
    // its RDLock; VAL_P_SC terminates the [PERSIST]sc at the follower.
    if (msg.type != MsgType::VAL_P && msg.type != MsgType::VAL_P_SC)
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
    co_await hostCores_.compute(nvm_.persistLatency(net::controlMsgBytes));
    co_await sendResponse(msg, MsgType::ACK_P_SC, sim_.now() - t_handle0);
}

} // namespace minos::simproto
