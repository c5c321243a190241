#include "node_o.hh"

#include "snic/cluster_o.hh"

#include "obs/phase.hh"

namespace minos::snic {

using kv::Key;
using kv::NodeId;
using kv::Record;
using kv::Timestamp;
using kv::Value;
using net::Message;
using net::MsgType;
using net::ScopeId;
using simproto::AckTally;
using simproto::FollowerStep;
using simproto::isScopeModel;
using simproto::tracksPersistPerWrite;
using simproto::txnKey;

NodeO::NodeO(sim::Simulator &sim, ClusterO &cluster,
             const ClusterConfig &cfg, PersistModel model, NodeId id)
    : DdpCore(sim, cfg, model, id), cluster_(cluster),
      snicCores_(sim, cfg.snicCores), snicRx_(sim),
      vfifo_(sim, cfg, store_, cluster.vfifoDma(id), progress_, id),
      dfifo_(sim, cfg, log_, cluster.dfifoDma(id), progress_, id)
{
    sim_.spawn(snicDispatcher());
}

bool
NodeO::clientGateReached(const AckTally &acks,
                         const PendingTxn &txn) const
{
    return consistencyGate(acks) &&
           (model_ != PersistModel::Strict ||
            (persistencyGate(acks) && txn.dfifoEnqueued));
}

// ---------------------------------------------------------------------
// Host engine
// ---------------------------------------------------------------------

sim::Task<OpStats>
NodeO::clientWrite(Key key, Value value, ScopeId scope)
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

    // Snatch RDLock on the coherent metadata (Fig. 8 line 8).
    Tick t_lock0 = sim_.now();
    co_await hostCores_.compute(cfg_.hostSyncNs + cfg_.coherenceNs);
    snatchRdLock(rec, ts);
    Tick t_lock1 = sim_.now();

    // Fig. 8 line 9: obsoleteness check (no WRLock in MINOS-O).
    if (kv::isObsolete(rec, ts)) {
        st.obsolete = true;
        ++counters_.writesObsoleteCut;
        Timestamp observed = rec.volatileTs;
        co_await handleObsolete(key, observed);
        releaseRdLockIfOwner(rec, key, ts);
        co_return finishOp(st, t0, obs::OpType::Write,
                           static_cast<std::int64_t>(key),
                           static_cast<std::int64_t>(ts.pack()));
    }

    // Register the transaction, then send the (batched) INV.
    TxnHold txn = pending_.insert(txnKey(key, ts));
    MINOS_ASSERT(txn, "duplicate TS_WR ", ts, " key ", key);

    const bool batching = cluster_.options().batching;
    co_await hostCores_.compute(
        batching ? cfg_.hostSendNs
                 : cfg_.hostSendNs * cfg_.followers());
    txn->tFirstSend = sim_.now();
    cluster_.hostSendInv(id_, makeInv(key, value, ts, scope));
    if (cfg_.mutations.releaseRdLockEarly)
        releaseRdLockIfOwner(rec, key, ts);

    // Fig. 8 lines 13-14: spin for the (batched) ACK. Without batching
    // the host counts the individually-forwarded ACKs itself.
    co_await progress_.until([&] {
        return batching ? txn->hostDone
                        : clientGateReached(txn->host, *txn);
    });
    txn->tGateAck = sim_.now();
    co_await hostCores_.compute(cfg_.bookkeepNs);

    // Host-side phase spans; every timestamp was taken at an await
    // point the protocol already had, so recording never moves
    // simulated time.
    if (cfg_.trace || cfg_.phases) {
        auto token = static_cast<std::int64_t>(ts.pack());
        obs::recordSpan(cfg_.trace, cfg_.phases, obs::Phase::LockWait,
                        t_lock0, t_lock1, id_, token);
        obs::recordSpan(cfg_.trace, cfg_.phases, obs::Phase::InvFanout,
                        t_lock1, txn->tFirstSend, id_, token);
        obs::recordSpan(cfg_.trace, cfg_.phases, obs::Phase::AckGather,
                        txn->tFirstSend, txn->tGateAck, id_, token);
        obs::recordSpan(cfg_.trace, cfg_.phases, obs::Phase::Val,
                        txn->tGateAck, sim_.now(), id_, token);
    }

    co_return finishOp(st, t0, obs::OpType::Write,
                       static_cast<std::int64_t>(key),
                       static_cast<std::int64_t>(ts.pack()), &*txn);
}

sim::Task<OpStats>
NodeO::persistScope(ScopeId scope)
{
    OpStats st;
    Tick t0 = sim_.now();
    if (!isScopeModel(model_))
        co_return st;

    traceEvent(obs::Category::Protocol, obs::EventKind::ClientOpBegin,
               static_cast<std::int64_t>(scope), 0,
               obs::opAux(obs::OpType::PersistSc, false));
    co_await hostCores_.compute(cfg_.clientReqNs);
    auto [it, inserted] = scopePending_.emplace(scope, PendingTxn{});
    MINOS_ASSERT(inserted, "duplicate [PERSIST]sc for scope ", scope);
    PendingTxn &txn = it->second;

    co_await hostCores_.compute(cfg_.hostSendNs);
    Message m;
    m.type = MsgType::PERSIST_SC;
    m.src = id_;
    m.scope = scope;
    m.sizeBytes = net::controlMsgBytes;
    m.destMask = 1; // marks "from host" for the local SNIC
    cluster_.hostSendControl(id_, m);

    co_await progress_.until([&] { return txn.hostDone; });
    co_await hostCores_.compute(cfg_.bookkeepNs);
    scopePending_.erase(scope);

    co_return finishOp(st, t0, obs::OpType::PersistSc,
                       static_cast<std::int64_t>(scope), 0);
}

// ---------------------------------------------------------------------
// SNIC engine: dispatch
// ---------------------------------------------------------------------

void
NodeO::deliverToSnic(Message msg)
{
    snicRx_.send(std::move(msg));
}

sim::Process
NodeO::snicDispatcher()
{
    for (;;) {
        Message m = co_await snicRx_.recv();
        sim_.spawn(snicHandle(std::move(m)));
    }
}

sim::Process
NodeO::snicHandle(Message msg)
{
    // Handling time starts at SNIC receive-queue deposit.
    Tick t_rx = sim_.now();
    co_await snicCores_.compute(cfg_.snicDispatchNs);
    switch (msg.type) {
      case MsgType::INV:
      case MsgType::INV_SC:
        if (msg.destMask != 0) {
            co_await snicOnCoordinatorInv(msg);
        } else {
            ++counters_.invsReceived;
            co_await snicOnFollowerInv(msg, t_rx);
        }
        break;
      case MsgType::ACK:
      case MsgType::ACK_C:
      case MsgType::ACK_P:
      case MsgType::ACK_C_SC:
      case MsgType::ACK_P_SC:
        ++counters_.acksReceived;
        co_await snicOnAck(msg);
        break;
      case MsgType::VAL:
      case MsgType::VAL_C:
      case MsgType::VAL_P:
      case MsgType::VAL_C_SC:
      case MsgType::VAL_P_SC:
        ++counters_.valsReceived;
        co_await snicOnVal(msg);
        break;
      case MsgType::PERSIST_SC:
        co_await snicOnPersistSc(msg, t_rx);
        break;
    }
}

// ---------------------------------------------------------------------
// SNIC engine: coordinator side
// ---------------------------------------------------------------------

sim::Task<void>
NodeO::snicEnqueueUpdate(Message msg, TxnHold txn)
{
    // Fig. 8 line 17: enqueue to vFIFO and dFIFO. The dFIFO enqueue is
    // in the handler's path when persistency gates the protocol
    // (Synch/Strict/REnf); the weak models defer it to the background.
    txn->vfifoId = co_await vfifo_.enqueue(msg.key, msg.value,
                                           msg.tsWr);
    txn->vfifoAssigned = true;
    progress_.notifyAll();
    if (tracksPersistPerWrite(model_)) {
        co_await dfifo_.enqueue(msg.key, msg.value, msg.tsWr,
                                cfg_.recordBytes);
        ++counters_.persists;
        txn->dfifoEnqueued = true;
        progress_.notifyAll();
    } else {
        dfifoInBackground(msg.key, msg.value, msg.tsWr, msg.scope,
                          cfg_.recordBytes);
        txn->dfifoEnqueued = true; // durability tracked via scope map
    }
    // The Strict client gate includes the local durable enqueue; the
    // last ACK may already have arrived.
    maybeFireClientGate(msg.key, msg.tsWr, msg.scope, txn);
}

sim::Task<void>
NodeO::snicOnCoordinatorInv(Message msg)
{
    TxnHold txn = pending_.find(txnKey(msg.key, msg.tsWr));
    MINOS_ASSERT(txn, "coordinator INV without a registered transaction");

    if (cluster_.options().batching) {
        // Fig. 8 lines 15-17: broadcast, then enqueue.
        traceEvent(obs::Category::Message,
                   obs::EventKind::SnicBroadcastInv,
                   static_cast<std::int64_t>(msg.key),
                   static_cast<std::int64_t>(msg.tsWr.pack()));
        Message out = msg;
        out.destMask = 0;
        cluster_.snicMulticast(out, /*from_batched=*/true);
        co_await snicEnqueueUpdate(msg, txn);
    } else {
        // One INV per follower arrives over PCIe; forward each, do the
        // protocol work (enqueues) once, on the first.
        int dst = 0;
        std::uint64_t mask = msg.destMask;
        while (!(mask & 1)) {
            mask >>= 1;
            ++dst;
        }
        Message out = msg;
        out.dst = static_cast<NodeId>(dst);
        out.destMask = 0;
        cluster_.snicUnicast(out);
        if (!txn->invProcessed) {
            txn->invProcessed = true;
            co_await snicEnqueueUpdate(msg, txn);
        }
    }
}

sim::Task<void>
NodeO::snicOnAck(Message msg)
{
    co_await snicCores_.compute(cfg_.bookkeepNs);
    // Recorded before the pending-table lookups so stray ACKs (for
    // already-retired transactions) are still visible to the auditors.
    traceAck(obs::EventKind::AckReceived, msg, msg.type, msg.src);
    if (msg.type == MsgType::ACK_P_SC) {
        auto its = scopePending_.find(msg.scope);
        if (its == scopePending_.end())
            co_return;
        PendingTxn &txn = its->second;
        txn.add(msg.type);
        if (txn.acksP >= cfg_.followers()) {
            // Gate: notify the host (client return) and terminate the
            // [PERSIST]sc with [VAL_P]sc.
            ScopeId scope = msg.scope;
            NodeO *self = this;
            cluster_.snicNotifyHost(
                id_, net::controlMsgBytes, [self, scope] {
                    auto it2 = self->scopePending_.find(scope);
                    if (it2 != self->scopePending_.end()) {
                        it2->second.hostDone = true;
                        self->progress_.notifyAll();
                    }
                });
            cluster_.snicMulticast(
                makeVal(MsgType::VAL_P_SC, 0, Timestamp::none(), scope),
                /*from_batched=*/false);
        }
        progress_.notifyAll();
        co_return;
    }

    TxnHold txn = pending_.find(txnKey(msg.key, msg.tsWr));
    if (!txn)
        co_return; // stray ACK
    if (!txn->add(msg.type))
        MINOS_PANIC("unexpected ACK type ", net::msgTypeName(msg.type));
    txn->addHandle(msg.handleNs);

    if (!cluster_.options().batching)
        forwardAckToHost(msg, txn); // Fig. 6: pass every ACK to host

    // Strict: the consistency gate spawns the VAL_C -> VAL_P tail.
    if (model_ == PersistModel::Strict &&
        msg.type == MsgType::ACK_C && txn->acksC == cfg_.followers()) {
        Record &rec = store_.at(msg.key);
        raiseGlbVolatile(rec, msg.key, msg.tsWr);
        sim_.spawn(snicCompleteWrite(msg.key, msg.tsWr, msg.scope, txn));
    }

    maybeFireClientGate(msg.key, msg.tsWr, msg.scope, txn);

    // REnf persistency tail: all ACK_Ps + local durable -> VALs+unlock.
    if (model_ == PersistModel::REnf && msg.type == MsgType::ACK_P &&
        txn->acksP == persistNeeded()) {
        Record &rec = store_.at(msg.key);
        raiseGlbDurable(rec, msg.key, msg.tsWr);
        sim_.spawn(snicCompleteWrite(msg.key, msg.tsWr, msg.scope, txn));
    }

    progress_.notifyAll();
}

void
NodeO::maybeFireClientGate(Key key, Timestamp ts, ScopeId scope,
                           const TxnHold &txn)
{
    if (txn->gateFired || !clientGateReached(*txn, *txn))
        return;
    txn->gateFired = true;
    if (cluster_.options().batching)
        notifyHostGate(txn);
    Record &rec = store_.at(key);
    switch (model_) {
      case PersistModel::Synch:
        raiseGlbVolatile(rec, key, ts);
        raiseGlbDurable(rec, key, ts);
        sim_.spawn(snicCompleteWrite(key, ts, scope, txn));
        break;
      case PersistModel::Strict:
        raiseGlbDurable(rec, key, ts);
        // VAL_C/VAL_P sequencing handled by the tail spawned at the
        // consistency gate.
        break;
      case PersistModel::REnf:
        raiseGlbVolatile(rec, key, ts);
        // VALs + unlock wait for all ACK_Ps (REnf tail in snicOnAck).
        break;
      case PersistModel::Event:
      case PersistModel::Scope:
        raiseGlbVolatile(rec, key, ts);
        sim_.spawn(snicCompleteWrite(key, ts, scope, txn));
        break;
    }
    progress_.notifyAll();
}

sim::Process
NodeO::snicCompleteWrite(Key key, Timestamp ts, ScopeId scope,
                         TxnHold txn)
{
    // Fig. 8 lines 21-24: wait for the vFIFO drain, release the RDLock
    // if still owner, broadcast the VALs, retire the transaction.
    co_await progress_.until([&] { return txn->vfifoAssigned; });
    co_await vfifo_.waitDrained(txn->vfifoId);

    Record &rec = store_.at(key);
    co_await snicCores_.compute(cfg_.snicSyncNs + cfg_.coherenceNs);
    releaseRdLockIfOwner(rec, key, ts);

    cluster_.snicMulticast(
        makeVal(simproto::valCType(model_), key, ts, scope),
        /*from_batched=*/false);

    if (model_ == PersistModel::Strict) {
        // VAL_P strictly after VAL_C, once the persistency gate is
        // reached (Fig. 3(i) ordering).
        co_await progress_.until([&] {
            return persistencyGate(*txn) && txn->dfifoEnqueued;
        });
        raiseGlbDurable(rec, key, ts);
        cluster_.snicMulticast(makeVal(MsgType::VAL_P, key, ts, scope),
                               /*from_batched=*/false);
    }
    pending_.erase(txnKey(key, ts));
    progress_.notifyAll();
}

void
NodeO::notifyHostGate(TxnHold txn)
{
    NodeO *self = this;
    cluster_.snicNotifyHost(id_, net::controlMsgBytes,
                            [self, txn = std::move(txn)] {
                                txn->hostDone = true;
                                self->progress_.notifyAll();
                            });
}

void
NodeO::forwardAckToHost(const Message &msg, TxnHold txn)
{
    NodeO *self = this;
    MsgType type = msg.type;
    cluster_.snicNotifyHost(
        id_, net::controlMsgBytes, [self, txn, type] {
            struct HostBookkeep
            {
                static sim::Process
                run(NodeO *self, TxnHold txn, MsgType type)
                {
                    co_await self->hostCores_.compute(
                        self->cfg_.bookkeepNs);
                    txn->host.add(type);
                    self->progress_.notifyAll();
                }
            };
            self->sim_.spawn(
                HostBookkeep::run(self, std::move(txn), type));
        });
}

// ---------------------------------------------------------------------
// SNIC engine: follower side
// ---------------------------------------------------------------------

void
NodeO::sendAck(const Message &inv, MsgType type, Tick handle_ns)
{
    traceAck(obs::EventKind::AckSent, inv, type, id_);
    cluster_.snicUnicast(makeAck(inv, type, handle_ns));
}

sim::Task<void>
NodeO::snicOnFollowerInv(Message msg, Tick t_handle0)
{
    Record &rec = store_.at(msg.key);

    // An INV that is already obsolete is cut short at once; otherwise
    // snatch the RDLock on the coherent metadata (Fig. 8 line 33) and
    // re-check.
    bool cut = kv::isObsolete(rec, msg.tsWr);
    if (!cut) {
        co_await snicCores_.compute(cfg_.snicSyncNs + cfg_.coherenceNs);
        snatchRdLock(rec, msg.tsWr);
        cut = kv::isObsolete(rec, msg.tsWr);
    }
    if (cut) {
        co_await ackObsoleteInv(msg, t_handle0, rec.volatileTs,
                                [&](MsgType type, Tick handle_ns) {
                                    sendAck(msg, type, handle_ns);
                                    return std::suspend_never{};
                                });
        // A snatch made before the cut is released (stale owner).
        releaseRdLockIfOwner(rec, msg.key, msg.tsWr);
        co_return;
    }

    // Track the follower-side transaction so the VAL can find the
    // vFIFO entry to wait on.
    TxnHold txn = pending_.insert(txnKey(msg.key, msg.tsWr));
    if (!txn)
        co_return; // duplicate INV: cannot happen with this fabric

    // Fig. 8 lines 34-35 + Fig. 7 per-model ACK points.
    txn->vfifoId = co_await vfifo_.enqueue(msg.key, msg.value,
                                           msg.tsWr);
    txn->vfifoAssigned = true;
    traceEvent(obs::Category::Fifo, obs::EventKind::FollowerEnqueued,
               static_cast<std::int64_t>(msg.key),
               static_cast<std::int64_t>(txn->vfifoId));
    progress_.notifyAll();
    for (FollowerStep s : appliedSteps_) {
        switch (s) {
          case FollowerStep::AckC:
          case FollowerStep::AckP:
            sendAck(msg, ackOf(s), sim_.now() - t_handle0);
            break;
          case FollowerStep::Persist:
            co_await dfifo_.enqueue(msg.key, msg.value, msg.tsWr,
                                    cfg_.recordBytes);
            ++counters_.persists;
            break;
          case FollowerStep::PersistLater:
            dfifoInBackground(msg.key, msg.value, msg.tsWr, msg.scope,
                              cfg_.recordBytes);
            break;
          default:
            break;
        }
    }
}

sim::Task<void>
NodeO::snicOnVal(Message msg)
{
    co_await snicCores_.compute(cfg_.bookkeepNs);
    Record &rec = store_.at(msg.key);

    TxnHold txn = pending_.find(txnKey(msg.key, msg.tsWr));

    raiseGlbForVal(rec, msg);
    // VAL_P_SC terminates the [PERSIST]sc at the follower; a VAL for an
    // INV we cut short as obsolete is discarded.
    if (msg.type == MsgType::VAL_P_SC || !txn)
        co_return;
    if (msg.type == MsgType::VAL_P) {
        // Wait for the VAL_C side to finish before retiring (VAL_C is
        // sent first but its handler may still be draining).
        co_await progress_.until([&] { return txn->releasedByValC; });
        pending_.erase(txnKey(msg.key, msg.tsWr));
        progress_.notifyAll();
        co_return;
    }

    // Fig. 8 lines 39-42: wait for the drain, then release the RDLock.
    co_await progress_.until([&] { return txn->vfifoAssigned; });
    co_await vfifo_.waitDrained(txn->vfifoId);
    co_await snicCores_.compute(cfg_.snicSyncNs + cfg_.coherenceNs);
    releaseRdLockIfOwner(rec, msg.key, msg.tsWr);
    txn->releasedByValC = true;
    progress_.notifyAll();

    // Strict keeps the txn alive until VAL_P.
    if (model_ != PersistModel::Strict) {
        pending_.erase(txnKey(msg.key, msg.tsWr));
        progress_.notifyAll();
    }
}

sim::Task<void>
NodeO::snicOnPersistSc(Message msg, Tick t_handle0)
{
    if (msg.destMask != 0) {
        // Coordinator SNIC: broadcast to followers, flush local scope.
        Message out = msg;
        out.destMask = 0;
        cluster_.snicMulticast(out, /*from_batched=*/false);
        co_await scopeFlushed(msg.scope);
        // Persist the [PERSIST]sc marker itself (small dFIFO entry).
        co_await dfifo_.enqueueMarker(net::controlMsgBytes);
        // ACKs collected in snicOnAck; nothing else to do here.
        co_return;
    }

    // Follower SNIC: flush the scope's outstanding dFIFO enqueues,
    // persist the marker, acknowledge. The ackBeforePersist mutation
    // skips the scope-flush wait, certifying durability the node does
    // not have.
    if (!cfg_.mutations.ackBeforePersist)
        co_await scopeFlushed(msg.scope);
    co_await dfifo_.enqueueMarker(net::controlMsgBytes);
    traceAck(obs::EventKind::AckSent, msg, MsgType::ACK_P_SC, id_);
    cluster_.snicUnicast(
        makeAck(msg, MsgType::ACK_P_SC, sim_.now() - t_handle0));
}

void
NodeO::dfifoInBackground(Key key, Value value, Timestamp ts,
                         ScopeId scope, std::uint32_t bytes)
{
    beginScopedPersist(scope);
    struct Launcher
    {
        static sim::Process
        run(NodeO *self, Key key, Value value, Timestamp ts,
            ScopeId scope, std::uint32_t bytes)
        {
            co_await self->dfifo_.enqueue(key, value, ts, bytes);
            ++self->counters_.persists;
            self->endScopedPersist(scope);
        }
    };
    sim_.spawn(Launcher::run(this, key, value, ts, scope, bytes));
}

} // namespace minos::snic
