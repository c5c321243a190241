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
using simproto::ackOf;
using simproto::CoordinatorGate;
using simproto::CoordinatorSchedule;
using simproto::CoordinatorStep;
using simproto::FollowerStep;
using simproto::isScopeModel;
using simproto::valOf;

NodeO::NodeO(sim::Simulator &sim, ClusterO &cluster,
             const ClusterConfig &cfg, PersistModel model, NodeId id)
    : DdpCore(sim, cfg, model, id), cluster_(cluster),
      snicCores_(sim, cfg.snicCores),
      vfifo_(sim, cfg, store_, cluster.vfifoDma(id), progress_, id),
      dfifo_(sim, cfg, store_, cluster.dfifoDma(id), progress_, id),
      valTail_(valTailOf(coordinatorSteps_))
{
    startDispatcher<NodeO>(snicCores_, cfg_.snicDispatchNs);
}

// ---------------------------------------------------------------------
// Host engine
// ---------------------------------------------------------------------

sim::Task<OpStats>
NodeO::clientWrite(Key key, Value value, ScopeId scope)
{
    Tick t0 = sim_.now();
    co_await hostCores_.compute(cfg_.clientReqNs);
    Record &rec = store_.at(key);
    Timestamp ts = beginWrite(key, rec);

    // Snatch RDLock on the coherent metadata (Fig. 8 line 8).
    Tick t_lock0 = sim_.now();
    co_await hostCores_.compute(cfg_.hostSyncNs + cfg_.coherenceNs);
    snatchRdLock(rec, ts);
    Tick t_lock1 = sim_.now();

    // Fig. 8 line 9: obsoleteness check (no WRLock in MINOS-O).
    if (kv::isObsolete(rec, ts))
        co_return co_await cutObsoleteWrite(t0, rec, key, ts,
                                            rec.volatileTs);

    // Register the transaction, then send the (batched) INV.
    TxnHold txn = pending_.insert(kv::WriteId::of(key, ts));
    MINOS_ASSERT(txn, "duplicate TS_WR ", ts, " key ", key);
    txn->gate = coordinatorSteps_.segmentEnd(coordinatorSteps_.begin());

    const bool batching = cluster_.options().batching;
    co_await hostCores_.compute(
        batching ? cfg_.hostSendNs
                 : cfg_.hostSendNs * cfg_.followers());
    txn->tFirstSend = sim_.now();
    cluster_.hostSendInv(id_, makeInv(key, value, ts, scope));
    // The head of the coordinator schedule: the SNIC persists; the host
    // runs the rest (the early RDLock release of a test mutation).
    for (const CoordinatorStep *s = coordinatorSteps_.begin();
         s != txn->gate; ++s)
        runCoordinatorStep(*s, rec, key, ts);

    // Fig. 8 lines 13-14: spin for the (batched) ACK. Without batching
    // the host counts the individually-forwarded ACKs itself.
    co_await progress_.until(txn->waitKey, [&] {
        return batching ? txn->hostDone
                        : gateHolds(returnGate_, txn->host,
                                    txn->localPersisted);
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

    co_return finishOp(OpStats{}, t0, obs::OpType::Write,
                       static_cast<std::int64_t>(key),
                       static_cast<std::int64_t>(ts.pack()), &*txn);
}

sim::Task<OpStats>
NodeO::persistScope(ScopeId scope)
{
    Tick t0 = sim_.now();
    if (!isScopeModel(model_))
        co_return OpStats{};
    co_await beginPersistScope(scope);
    TxnHold txn = pending_.insert(kv::WriteId::ofScope(scope));
    MINOS_ASSERT(txn, "duplicate [PERSIST]sc for scope ", scope);

    co_await hostCores_.compute(cfg_.hostSendNs);
    Message m = net::makePersistSc(id_, scope);
    m.destMask = 1; // marks "from host" for the local SNIC
    cluster_.hostSendControl(id_, m);

    co_await progress_.until(txn->waitKey, [&] { return txn->hostDone; });
    co_await hostCores_.compute(cfg_.bookkeepNs);
    pending_.erase(kv::WriteId::ofScope(scope));

    co_return finishOp(OpStats{}, t0, obs::OpType::PersistSc,
                       static_cast<std::int64_t>(scope), 0);
}

// ---------------------------------------------------------------------
// SNIC engine: dispatch
// ---------------------------------------------------------------------

sim::Task<void>
NodeO::onInv(Message msg, Tick t_rx)
{
    // An INV from the local host (its destination mask set) is this
    // node's own write; any other comes from a coordinator.
    return msg.destMask != 0 ? onCoordinatorInv(std::move(msg))
                             : onFollowerInv(std::move(msg), t_rx);
}

// ---------------------------------------------------------------------
// SNIC engine: coordinator side
// ---------------------------------------------------------------------

sim::Task<void>
NodeO::snicEnqueueUpdate(Message msg, TxnHold txn)
{
    // Fig. 8 line 17: enqueue to vFIFO and dFIFO. The dFIFO enqueue is
    // in the handler's path when a gate of the coordinator schedule
    // waits for it (Synch/Strict/REnf); the weak models defer it to the
    // background.
    txn->vfifoId = co_await vfifo_.enqueue(msg.key, msg.value,
                                           msg.tsWr);
    txn->waitKey.fire();
    progress_.notifyAll();
    if (coordinatorSteps_.awaitsLocalPersist()) {
        co_await dfifo_.enqueue(msg.key, msg.value, msg.tsWr,
                                cfg_.recordBytes);
        txn->localPersisted = true;
        txn->waitKey.fire();
        txn->acksKey.fire();
        progress_.notifyAll();
    } else {
        persistLater(msg.key, msg.value, msg.tsWr, msg.scope);
        txn->localPersisted = true; // durability tracked per scope
    }
    // The gates that raise glb_durableTS include the local durable
    // enqueue; the last ACK may already have arrived.
    runGates(msg.key, msg.tsWr, msg.scope, txn);
}

sim::Task<void>
NodeO::onCoordinatorInv(Message msg)
{
    TxnHold txn = pending_.find(kv::WriteId::of(msg.key, msg.tsWr));
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
NodeO::onAck(Message msg, Tick)
{
    co_await snicCores_.compute(cfg_.bookkeepNs);
    TxnHold txn = tallyAck(pending_, msg);
    if (!txn)
        co_return;
    if (msg.type == MsgType::ACK_P_SC) {
        // Every [ACK_P]sc in: answer the host and close the
        // [PERSIST]sc with [VAL_P]sc.
        if (txn->acksP >= cfg_.followers()) {
            notifyHostGate(txn);
            cluster_.snicMulticast(makeVal(MsgType::VAL_P_SC, 0,
                                           Timestamp::none(), msg.scope),
                                   /*from_batched=*/false);
        }
        progress_.notifyAll();
        co_return;
    }
    txn->acksKey.fire();
    txn->addHandle(msg.handleNs);

    if (!cluster_.options().batching)
        forwardAckToHost(msg, txn); // Fig. 6: pass every ACK to host

    runGates(msg.key, msg.tsWr, msg.scope, txn);
    progress_.notifyAll();
}

void
NodeO::runGates(Key key, Timestamp ts, ScopeId scope, const TxnHold &txn)
{
    // Run each segment of the coordinator schedule whose gate holds, in
    // order and once: its at-gate steps now, the rest in the VAL tail.
    Record &rec = store_.at(key);
    while (txn->gate != coordinatorSteps_.end() &&
           gateHolds(coordinatorSteps_.gateOf(txn->gate), *txn)) {
        const CoordinatorStep *g = txn->gate;
        txn->gate = coordinatorSteps_.segmentEnd(g);
        for (const CoordinatorStep *s = g + 1; s != txn->gate; ++s) {
            if (*s == CoordinatorStep::Return) {
                if (cluster_.options().batching)
                    notifyHostGate(txn);
            } else if (runsAtGate(*s)) {
                runCoordinatorStep(*s, rec, key, ts);
            }
        }
        if (g < valTail_ && valTail_ < txn->gate)
            sim_.spawn(snicCompleteWrite(key, ts, scope, txn));
        progress_.notifyAll();
    }
}

sim::Process
NodeO::snicCompleteWrite(Key key, Timestamp ts, ScopeId scope,
                         TxnHold txn)
{
    // Fig. 8 lines 21-24: wait for the vFIFO drain, then walk the VAL
    // tail: release the RDLock if still owner and broadcast the VALs,
    // waiting at each gate on the way; retire the transaction.
    co_await progress_.until(txn->waitKey,
                             [&] { return txn->vfifoId != noEntry; });
    co_await vfifo_.waitDrained(txn->vfifoId);

    Record &rec = store_.at(key);
    co_await snicCores_.compute(cfg_.snicSyncNs + cfg_.coherenceNs);
    for (const CoordinatorStep *s = valTail_; s != coordinatorSteps_.end();
         ++s) {
        if (*s == CoordinatorStep::ReleaseRdLock) {
            releaseRdLockIfOwner(rec, key, ts);
        } else if (*s == CoordinatorStep::SendVal ||
                   *s == CoordinatorStep::SendValP) {
            cluster_.snicMulticast(
                makeVal(valOf(model_, *s), key, ts, scope),
                /*from_batched=*/false);
        } else if (CoordinatorSchedule::isAwait(*s)) {
            const CoordinatorGate gate = coordinatorSteps_.gateOf(s);
            co_await progress_.until(txn->acksKey, [&] {
                return gateHolds(gate, *txn);
            });
        }
    }
    pending_.erase(kv::WriteId::of(key, ts));
    progress_.notifyAll();
}

void
NodeO::notifyHostGate(TxnHold txn)
{
    NodeO *self = this;
    cluster_.snicNotifyHost(id_, net::controlMsgBytes,
                            [self, txn = std::move(txn)] {
                                txn->hostDone = true;
                                txn->waitKey.fire();
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
                    txn->waitKey.fire();
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
NodeO::onFollowerInv(Message msg, Tick t_handle0)
{
    ++counters_.invsReceived;
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
    TxnHold txn = pending_.insert(kv::WriteId::of(msg.key, msg.tsWr));
    if (!txn)
        co_return; // duplicate INV: cannot happen with this fabric

    // Fig. 8 lines 34-35 + Fig. 7 per-model ACK points.
    txn->vfifoId = co_await vfifo_.enqueue(msg.key, msg.value,
                                           msg.tsWr);
    txn->waitKey.fire();
    traceEvent(obs::Category::Fifo, obs::EventKind::FollowerEnqueued,
               static_cast<std::int64_t>(msg.key),
               static_cast<std::int64_t>(txn->vfifoId));
    progress_.notifyAll();
    for (FollowerStep s : appliedSteps_) {
        switch (s) {
          case FollowerStep::AckC:
          case FollowerStep::AckP:
            sendAck(msg, ackOf(model_, s), sim_.now() - t_handle0);
            break;
          case FollowerStep::Persist:
            co_await dfifo_.enqueue(msg.key, msg.value, msg.tsWr,
                                    cfg_.recordBytes);
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
NodeO::onVal(Message msg)
{
    co_await snicCores_.compute(cfg_.bookkeepNs);
    Record &rec = store_.at(msg.key);

    TxnHold txn = pending_.find(kv::WriteId::of(msg.key, msg.tsWr));

    raiseGlbForVal(rec, msg);
    // VAL_P_SC terminates the [PERSIST]sc at the follower; a VAL for an
    // INV we cut short as obsolete is discarded.
    if (msg.type == MsgType::VAL_P_SC || !txn)
        co_return;
    if (msg.type == MsgType::VAL_P) {
        // Wait for the VAL_C side to finish before retiring (VAL_C is
        // sent first but its handler may still be draining).
        co_await progress_.until(txn->waitKey,
                                 [&] { return txn->releasedByValC; });
        pending_.erase(kv::WriteId::of(msg.key, msg.tsWr));
        progress_.notifyAll();
        co_return;
    }

    // Fig. 8 lines 39-42: wait for the drain, then release the RDLock.
    // The entry exists: this node sent its consistency ACK only after
    // the enqueue, and the coordinator sends this VAL only after every
    // consistency ACK is in.
    MINOS_ASSERT(txn->vfifoId != noEntry, "node ", id_, ": VAL for key ",
                 msg.key, " before its INV's vFIFO enqueue");
    co_await vfifo_.waitDrained(txn->vfifoId);
    co_await snicCores_.compute(cfg_.snicSyncNs + cfg_.coherenceNs);
    releaseRdLockIfOwner(rec, msg.key, msg.tsWr);
    txn->releasedByValC = true;
    txn->waitKey.fire();
    progress_.notifyAll();

    // Strict keeps the txn alive until VAL_P.
    if (model_ != PersistModel::Strict) {
        pending_.erase(kv::WriteId::of(msg.key, msg.tsWr));
        progress_.notifyAll();
    }
}

sim::Task<void>
NodeO::onPersistSc(Message msg, Tick t_handle0)
{
    if (msg.destMask != 0) {
        // Coordinator SNIC: broadcast to followers, flush local scope.
        Message out = msg;
        out.destMask = 0;
        cluster_.snicMulticast(out, /*from_batched=*/false);
        co_await scopeFlushed(msg.scope);
        // Persist the [PERSIST]sc marker itself (small dFIFO entry).
        co_await dfifo_.enqueueMarker(net::controlMsgBytes);
        // ACKs collected in onAck; nothing else to do here.
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
NodeO::persistLater(Key key, Value value, Timestamp ts, ScopeId scope)
{
    persistInBackground(
        scope,
        [=, this] { return dfifo_.enqueue(key, value, ts, cfg_.recordBytes); },
        [] {});
}

} // namespace minos::snic
