#include "node_o.hh"

#include "snic/cluster_o.hh"

#include "simproto/trace_map.hh"

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
using simproto::isScopeModel;
using simproto::needsPersistencySpin;
using simproto::persistOnCriticalPath;
using simproto::tracksPersistPerWrite;
using simproto::usesSplitAcks;

NodeO::NodeO(sim::Simulator &sim, ClusterO &cluster,
             const ClusterConfig &cfg, PersistModel model, NodeId id)
    : sim_(sim), cluster_(cluster), cfg_(cfg), model_(model), id_(id),
      store_(cfg.numRecords), hostCores_(sim, cfg.hostCores),
      snicCores_(sim, cfg.snicCores), snicRx_(sim), progress_(sim),
      vfifo_(sim, cfg, store_, cluster.vfifoDma(id), progress_, id),
      dfifo_(sim, cfg, log_, cluster.dfifoDma(id), progress_, id)
{
    sim_.spawn(snicDispatcher());
}

// ---------------------------------------------------------------------
// Shared primitives
// ---------------------------------------------------------------------

bool
NodeO::obsolete(const Record &rec, const Timestamp &ts) const
{
    return kv::isObsolete(rec, ts);
}

void
NodeO::snatchRdLock(Record &rec, const Timestamp &ts)
{
    if (rec.rdLockOwner < ts) {
        rec.rdLockOwner = ts;
        ++counters_.rdLockSnatches;
    }
}

void
NodeO::releaseRdLockIfOwner(Record &rec, Key key, const Timestamp &ts)
{
    if (rec.rdLockOwner == ts) {
        rec.rdLockOwner = Timestamp::none();
        traceEvent(obs::Category::Lock, obs::EventKind::RdLockReleased,
                   static_cast<std::int64_t>(key),
                   static_cast<std::int64_t>(ts.pack()));
        progress_.notifyAll();
    }
}

void
NodeO::raiseGlbVolatile(Record &rec, Key key, const Timestamp &ts)
{
    if (rec.glbVolatileTs < ts) {
        rec.glbVolatileTs = ts;
        traceEvent(obs::Category::Protocol, obs::EventKind::GlbRaised,
                   static_cast<std::int64_t>(key),
                   static_cast<std::int64_t>(ts.pack()), 0);
        progress_.notifyAll();
    }
}

void
NodeO::raiseGlbDurable(Record &rec, Key key, const Timestamp &ts)
{
    if (rec.glbDurableTs < ts) {
        rec.glbDurableTs = ts;
        traceEvent(obs::Category::Protocol, obs::EventKind::GlbRaised,
                   static_cast<std::int64_t>(key),
                   static_cast<std::int64_t>(ts.pack()), 1);
        progress_.notifyAll();
    }
}

Timestamp
NodeO::makeWriteTs(Key key, Record &rec)
{
    auto &next = nextLocalVersion_[key];
    std::int64_t ver = std::max(rec.volatileTs.version + 1, next);
    next = ver + 1;
    return Timestamp{ver, id_};
}

sim::Task<void>
NodeO::handleObsolete(Key key, Timestamp observed)
{
    Record &rec = store_.at(key);
    co_await progress_.until(
        [&] { return rec.glbVolatileTs >= observed; });
    if (needsPersistencySpin(model_))
        co_await progress_.until(
            [&] { return rec.glbDurableTs >= observed; });
}

MsgType
NodeO::invType() const
{
    return isScopeModel(model_) ? MsgType::INV_SC : MsgType::INV;
}

MsgType
NodeO::ackCType() const
{
    if (model_ == PersistModel::Synch)
        return MsgType::ACK;
    return isScopeModel(model_) ? MsgType::ACK_C_SC : MsgType::ACK_C;
}

MsgType
NodeO::valCType() const
{
    switch (model_) {
      case PersistModel::Synch:
      case PersistModel::REnf:
        return MsgType::VAL;
      case PersistModel::Strict:
      case PersistModel::Event:
        return MsgType::VAL_C;
      case PersistModel::Scope:
        return MsgType::VAL_C_SC;
    }
    return MsgType::VAL;
}

bool
NodeO::snicGateReached(const PendingTxn &txn) const
{
    switch (model_) {
      case PersistModel::Synch:
        return txn.acks >= txn.needed;
      case PersistModel::Strict:
        return txn.acksC >= txn.needed &&
               txn.acksP >= persistNeeded(txn) && txn.dfifoEnqueued;
      case PersistModel::REnf:
      case PersistModel::Event:
      case PersistModel::Scope:
        return txn.acksC >= txn.needed;
    }
    return false;
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

    if (obsolete(rec, ts)) {
        ++counters_.writesObsoleteCut;
        Timestamp observed = rec.volatileTs;
        co_await handleObsolete(key, observed);
        st.obsolete = true;
        st.latencyNs = sim_.now() - t0;
        st.compNs = static_cast<double>(st.latencyNs);
        traceEvent(obs::Category::Protocol, obs::EventKind::ClientOpEnd,
                   static_cast<std::int64_t>(key),
                   static_cast<std::int64_t>(ts.pack()),
                   obs::opAux(obs::OpType::Write, true));
        co_return st;
    }

    // Snatch RDLock on the coherent metadata (Fig. 8 line 8).
    Tick t_lock0 = sim_.now();
    co_await hostCores_.compute(cfg_.hostSyncNs + cfg_.coherenceNs);
    snatchRdLock(rec, ts);
    Tick t_lock1 = sim_.now();

    // Fig. 8 line 9: re-check (no WRLock in MINOS-O).
    if (obsolete(rec, ts)) {
        st.obsolete = true;
        ++counters_.writesObsoleteCut;
        Timestamp observed = rec.volatileTs;
        co_await handleObsolete(key, observed);
        releaseRdLockIfOwner(rec, key, ts);
        st.latencyNs = sim_.now() - t0;
        st.compNs = static_cast<double>(st.latencyNs);
        traceEvent(obs::Category::Protocol, obs::EventKind::ClientOpEnd,
                   static_cast<std::int64_t>(key),
                   static_cast<std::int64_t>(ts.pack()),
                   obs::opAux(obs::OpType::Write, true));
        co_return st;
    }

    // Register the transaction, then send the (batched) INV.
    auto txn = std::make_shared<PendingTxn>();
    txn->needed = cfg_.followers();
    auto [it, inserted] = pending_.emplace(txnKey(key, ts), txn);
    MINOS_ASSERT(inserted, "duplicate TS_WR ", ts, " key ", key);

    const bool batching = cluster_.options().batching;
    co_await hostCores_.compute(
        batching ? cfg_.hostSendNs
                 : cfg_.hostSendNs * cfg_.followers());
    txn->tFirstSend = sim_.now();

    Message m;
    m.type = invType();
    m.src = id_;
    m.key = key;
    m.tsWr = ts;
    m.value = value;
    m.scope = scope;
    m.sizeBytes = cfg_.recordBytes + net::controlMsgBytes;
    cluster_.hostSendInv(id_, m);
    traceEvent(obs::Category::Message, obs::EventKind::InvFanout,
               static_cast<std::int64_t>(key),
               static_cast<std::int64_t>(ts.pack()));
    if (isScopeModel(model_))
        traceEvent(obs::Category::Protocol, obs::EventKind::ScopeMark,
                   (static_cast<std::int64_t>(scope) << 32) |
                       static_cast<std::int64_t>(key),
                   static_cast<std::int64_t>(ts.pack()));
    if (cfg_.mutations.releaseRdLockEarly)
        releaseRdLockIfOwner(rec, key, ts);

    // Fig. 8 lines 13-14: spin for the (batched) ACK. Without batching
    // the host counts the individually-forwarded ACKs itself.
    auto host_gate = [&]() -> bool {
        if (batching)
            return txn->hostDone;
        switch (model_) {
          case PersistModel::Synch:
            return txn->hostAcks >= txn->needed;
          case PersistModel::Strict:
            return txn->hostAcksC >= txn->needed &&
                   txn->hostAcksP >= persistNeeded(*txn) &&
                   txn->dfifoEnqueued;
          default:
            return txn->hostAcksC >= txn->needed;
        }
    };
    co_await progress_.until(host_gate);
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

    st.latencyNs = sim_.now() - t0;
    if (txn->handleCnt > 0 && txn->tGateAck > txn->tFirstSend) {
        double handle_avg =
            static_cast<double>(txn->handleNsSum) / txn->handleCnt;
        double comm =
            static_cast<double>(txn->tGateAck - txn->tFirstSend) -
            handle_avg;
        comm = std::max(0.0, comm);
        comm = std::min(comm, static_cast<double>(st.latencyNs));
        st.commNs = comm;
    }
    st.compNs = static_cast<double>(st.latencyNs) - st.commNs;
    traceEvent(obs::Category::Protocol, obs::EventKind::ClientOpEnd,
               static_cast<std::int64_t>(key),
               static_cast<std::int64_t>(ts.pack()),
               obs::opAux(obs::OpType::Write, false));
    co_return st;
}

sim::Task<OpStats>
NodeO::clientRead(Key key)
{
    OpStats st;
    Tick t0 = sim_.now();
    traceEvent(obs::Category::Protocol, obs::EventKind::ClientOpBegin,
               static_cast<std::int64_t>(key), 0,
               obs::opAux(obs::OpType::Read, false));
    co_await hostCores_.compute(cfg_.clientReqNs);
    Record &rec = store_.at(key);
    // A read stalls only while the RDLock is taken by a write. The value
    // and its TS are taken the moment the lock is seen free: an INV that
    // lands during the LLC read latency is not part of this read.
    co_await progress_.until([&] { return rec.rdLockFree(); });
    st.value = rec.value;
    Timestamp seen = rec.volatileTs;
    co_await hostCores_.compute(cfg_.llcReadNs);
    // The end record carries the observed write's TS so the auditors
    // can tie the read into that write's causal timeline.
    traceEvent(obs::Category::Protocol, obs::EventKind::ClientOpEnd,
               static_cast<std::int64_t>(key),
               static_cast<std::int64_t>(seen.pack()),
               obs::opAux(obs::OpType::Read, false));
    st.latencyNs = sim_.now() - t0;
    st.compNs = static_cast<double>(st.latencyNs);
    co_return st;
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
    txn.needed = cfg_.followers();

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

    traceEvent(obs::Category::Protocol, obs::EventKind::ClientOpEnd,
               static_cast<std::int64_t>(scope), 0,
               obs::opAux(obs::OpType::PersistSc, false));
    st.latencyNs = sim_.now() - t0;
    st.compNs = static_cast<double>(st.latencyNs);
    co_return st;
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
            counters_.invsSent +=
                static_cast<std::uint64_t>(cfg_.followers());
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
NodeO::snicEnqueueUpdate(Message msg, TxnPtr txn)
{
    // Fig. 8 line 17: enqueue to vFIFO and dFIFO. The dFIFO enqueue is
    // in the handler's path when persistency gates the protocol
    // (Synch/Strict/REnf); the weak models defer it to the background.
    txn->vfifoId = co_await vfifo_.enqueue(msg.key, msg.value,
                                           msg.tsWr);
    txn->vfifoAssigned = true;
    progress_.notifyAll();
    if (tracksPersistPerWrite(model_)) {
        txn->dfifoId = co_await dfifo_.enqueue(msg.key, msg.value,
                                               msg.tsWr,
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
    auto it = pending_.find(txnKey(msg.key, msg.tsWr));
    MINOS_ASSERT(it != pending_.end(),
                 "coordinator INV without a registered transaction");
    TxnPtr txn = it->second;

    if (cluster_.options().batching) {
        // Fig. 8 lines 15-17: broadcast, then enqueue.
        if (cfg_.trace)
            cfg_.trace->record(sim_.now(), obs::Category::Message,
                               obs::EventKind::SnicBroadcastInv, id_,
                               static_cast<std::int64_t>(msg.key),
                               static_cast<std::int64_t>(
                                   msg.tsWr.pack()));
        Message out = msg;
        out.destMask = 0;
        cluster_.snicMulticast(id_, out, /*from_batched=*/true);
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
    if (msg.type == MsgType::ACK_P_SC)
        traceEvent(obs::Category::Protocol, obs::EventKind::AckReceived,
                   static_cast<std::int64_t>(msg.scope), 0,
                   obs::ackAux(simproto::ackFlavorOf(msg.type),
                               msg.src));
    else
        traceEvent(obs::Category::Protocol, obs::EventKind::AckReceived,
                   static_cast<std::int64_t>(msg.key),
                   static_cast<std::int64_t>(msg.tsWr.pack()),
                   obs::ackAux(simproto::ackFlavorOf(msg.type),
                               msg.src));
    if (msg.type == MsgType::ACK_P_SC) {
        auto its = scopePending_.find(msg.scope);
        if (its == scopePending_.end())
            co_return;
        PendingTxn &txn = its->second;
        ++txn.acksP;
        if (txn.acksP >= txn.needed) {
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
            traceEvent(obs::Category::Protocol,
                       obs::EventKind::ValSent,
                       static_cast<std::int64_t>(scope), 0,
                       static_cast<std::uint16_t>(
                           obs::ValFlavor::ValPSc));
            Message val;
            val.type = MsgType::VAL_P_SC;
            val.src = id_;
            val.scope = scope;
            val.sizeBytes = net::controlMsgBytes;
            cluster_.snicMulticast(id_, val, /*from_batched=*/false);
        }
        progress_.notifyAll();
        co_return;
    }

    auto it = pending_.find(txnKey(msg.key, msg.tsWr));
    if (it == pending_.end())
        co_return; // stray ACK
    TxnPtr txn = it->second;

    switch (msg.type) {
      case MsgType::ACK: ++txn->acks; break;
      case MsgType::ACK_C:
      case MsgType::ACK_C_SC: ++txn->acksC; break;
      case MsgType::ACK_P: ++txn->acksP; break;
      default:
        MINOS_PANIC("unexpected ACK type ", net::msgTypeName(msg.type));
    }
    txn->handleNsSum += msg.handleNs;
    ++txn->handleCnt;

    if (!cluster_.options().batching)
        forwardAckToHost(msg, txn); // Fig. 6: pass every ACK to host

    // Strict: the consistency gate spawns the VAL_C -> VAL_P tail.
    if (model_ == PersistModel::Strict &&
        msg.type == MsgType::ACK_C && txn->acksC == txn->needed) {
        Record &rec = store_.at(msg.key);
        raiseGlbVolatile(rec, msg.key, msg.tsWr);
        sim_.spawn(snicStrictTail(msg.key, msg.tsWr, txn));
    }

    maybeFireClientGate(msg.key, msg.tsWr, msg.scope, txn);

    // REnf persistency tail: all ACK_Ps + local durable -> VALs+unlock.
    if (model_ == PersistModel::REnf && msg.type == MsgType::ACK_P &&
        txn->acksP == persistNeeded(*txn)) {
        Record &rec = store_.at(msg.key);
        raiseGlbDurable(rec, msg.key, msg.tsWr);
        sim_.spawn(snicCompleteSynchLike(msg.key, msg.tsWr, msg.scope,
                                         txn));
    }

    progress_.notifyAll();
}

void
NodeO::maybeFireClientGate(Key key, Timestamp ts, ScopeId scope,
                           const TxnPtr &txn)
{
    if (txn->gateFired || !snicGateReached(*txn))
        return;
    txn->gateFired = true;
    if (cluster_.options().batching)
        notifyHostGate(txn);
    Record &rec = store_.at(key);
    switch (model_) {
      case PersistModel::Synch:
        raiseGlbVolatile(rec, key, ts);
        raiseGlbDurable(rec, key, ts);
        sim_.spawn(snicCompleteSynchLike(key, ts, scope, txn));
        break;
      case PersistModel::Strict:
        raiseGlbDurable(rec, key, ts);
        // VAL_C/VAL_P sequencing handled by snicStrictTail.
        break;
      case PersistModel::REnf:
        raiseGlbVolatile(rec, key, ts);
        // VALs + unlock wait for all ACK_Ps (REnf tail in snicOnAck).
        break;
      case PersistModel::Event:
      case PersistModel::Scope:
        raiseGlbVolatile(rec, key, ts);
        sim_.spawn(snicCompleteSynchLike(key, ts, scope, txn));
        break;
    }
    progress_.notifyAll();
}

sim::Process
NodeO::snicCompleteSynchLike(Key key, Timestamp ts, ScopeId scope,
                             TxnPtr txn)
{
    // Fig. 8 lines 21-24: wait for the vFIFO drain, release the RDLock
    // if still owner, broadcast the VALs, retire the transaction.
    co_await progress_.until([&] { return txn->vfifoAssigned; });
    co_await vfifo_.waitDrained(txn->vfifoId);

    Record &rec = store_.at(key);
    co_await snicCores_.compute(cfg_.snicSyncNs + cfg_.coherenceNs);
    releaseRdLockIfOwner(rec, key, ts);

    traceEvent(obs::Category::Protocol, obs::EventKind::ValSent,
               static_cast<std::int64_t>(key),
               static_cast<std::int64_t>(ts.pack()),
               static_cast<std::uint16_t>(
                   simproto::valFlavorOf(valCType())));
    Message val;
    val.type = valCType();
    val.src = id_;
    val.key = key;
    val.tsWr = ts;
    val.scope = scope;
    val.sizeBytes = net::controlMsgBytes;
    counters_.valsSent += static_cast<std::uint64_t>(cfg_.followers());
    cluster_.snicMulticast(id_, val, /*from_batched=*/false);
    pending_.erase(txnKey(key, ts));
    progress_.notifyAll();
}

sim::Process
NodeO::snicStrictTail(Key key, Timestamp ts, TxnPtr txn)
{
    // Strict: VAL_C after the local drain, VAL_P strictly after VAL_C
    // once the persistency gate is reached (Fig. 3(i) ordering).
    co_await progress_.until([&] { return txn->vfifoAssigned; });
    co_await vfifo_.waitDrained(txn->vfifoId);

    Record &rec = store_.at(key);
    co_await snicCores_.compute(cfg_.snicSyncNs + cfg_.coherenceNs);
    releaseRdLockIfOwner(rec, key, ts);

    traceEvent(obs::Category::Protocol, obs::EventKind::ValSent,
               static_cast<std::int64_t>(key),
               static_cast<std::int64_t>(ts.pack()),
               static_cast<std::uint16_t>(obs::ValFlavor::ValC));
    Message val;
    val.type = MsgType::VAL_C;
    val.src = id_;
    val.key = key;
    val.tsWr = ts;
    val.sizeBytes = net::controlMsgBytes;
    counters_.valsSent += static_cast<std::uint64_t>(cfg_.followers());
    cluster_.snicMulticast(id_, val, /*from_batched=*/false);

    co_await progress_.until([&] {
        return txn->acksP >= persistNeeded(*txn) && txn->dfifoEnqueued;
    });
    raiseGlbDurable(rec, key, ts);
    traceEvent(obs::Category::Protocol, obs::EventKind::ValSent,
               static_cast<std::int64_t>(key),
               static_cast<std::int64_t>(ts.pack()),
               static_cast<std::uint16_t>(obs::ValFlavor::ValP));
    Message valp = val;
    valp.type = MsgType::VAL_P;
    counters_.valsSent += static_cast<std::uint64_t>(cfg_.followers());
    cluster_.snicMulticast(id_, valp, /*from_batched=*/false);
    pending_.erase(txnKey(key, ts));
    progress_.notifyAll();
}

void
NodeO::notifyHostGate(TxnPtr txn)
{
    NodeO *self = this;
    cluster_.snicNotifyHost(id_, net::controlMsgBytes,
                            [self, txn = std::move(txn)] {
                                txn->hostDone = true;
                                self->progress_.notifyAll();
                            });
}

void
NodeO::forwardAckToHost(const Message &msg, TxnPtr txn)
{
    NodeO *self = this;
    MsgType type = msg.type;
    cluster_.snicNotifyHost(
        id_, net::controlMsgBytes, [self, txn, type] {
            struct HostBookkeep
            {
                static sim::Process
                run(NodeO *self, TxnPtr txn, MsgType type)
                {
                    co_await self->hostCores_.compute(
                        self->cfg_.bookkeepNs);
                    switch (type) {
                      case MsgType::ACK: ++txn->hostAcks; break;
                      case MsgType::ACK_C:
                      case MsgType::ACK_C_SC: ++txn->hostAcksC; break;
                      case MsgType::ACK_P: ++txn->hostAcksP; break;
                      default: break;
                    }
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

sim::Task<void>
NodeO::snicOnFollowerInv(Message msg, Tick t_handle0)
{
    Record &rec = store_.at(msg.key);

    auto send_ack = [&](MsgType type, Tick handle) {
        traceEvent(obs::Category::Protocol, obs::EventKind::AckSent,
                   static_cast<std::int64_t>(msg.key),
                   static_cast<std::int64_t>(msg.tsWr.pack()),
                   obs::ackAux(simproto::ackFlavorOf(type), id_));
        Message resp = net::makeResponse(msg, type);
        resp.handleNs = handle;
        ++counters_.acksSent;
        cluster_.snicUnicast(resp);
    };

    auto obsolete_acks = [&](Timestamp observed) -> sim::Task<void> {
        if (usesSplitAcks(model_)) {
            co_await progress_.until(
                [&] { return rec.glbVolatileTs >= observed; });
            send_ack(ackCType(), sim_.now() - t_handle0);
            if (tracksPersistPerWrite(model_)) {
                co_await progress_.until(
                    [&] { return rec.glbDurableTs >= observed; });
                send_ack(MsgType::ACK_P, sim_.now() - t_handle0);
            }
        } else {
            co_await handleObsolete(msg.key, observed);
            send_ack(MsgType::ACK, sim_.now() - t_handle0);
        }
    };

    if (obsolete(rec, msg.tsWr)) {
        ++obsoleteInvs_;
        ++counters_.invsObsolete;
        traceEvent(obs::Category::Protocol, obs::EventKind::InvObsolete,
                   static_cast<std::int64_t>(msg.key),
                   static_cast<std::int64_t>(msg.tsWr.pack()));
        co_await obsolete_acks(rec.volatileTs);
        co_return;
    }

    // Snatch the RDLock on the coherent metadata (Fig. 8 line 33).
    co_await snicCores_.compute(cfg_.snicSyncNs + cfg_.coherenceNs);
    snatchRdLock(rec, msg.tsWr);

    if (obsolete(rec, msg.tsWr)) {
        ++obsoleteInvs_;
        ++counters_.invsObsolete;
        traceEvent(obs::Category::Protocol, obs::EventKind::InvObsolete,
                   static_cast<std::int64_t>(msg.key),
                   static_cast<std::int64_t>(msg.tsWr.pack()));
        Timestamp observed = rec.volatileTs;
        co_await obsolete_acks(observed);
        releaseRdLockIfOwner(rec, msg.key, msg.tsWr);
        co_return;
    }

    // Track the follower-side transaction so the VAL can find the
    // vFIFO entry to wait on.
    auto txn = std::make_shared<PendingTxn>();
    auto [it, inserted] = pending_.emplace(txnKey(msg.key, msg.tsWr),
                                           txn);
    if (!inserted)
        co_return; // duplicate INV: cannot happen with this fabric

    // Fig. 8 lines 34-35 + Fig. 7 per-model ACK points.
    txn->vfifoId = co_await vfifo_.enqueue(msg.key, msg.value,
                                           msg.tsWr);
    txn->vfifoAssigned = true;
    if (cfg_.trace)
        cfg_.trace->record(sim_.now(), obs::Category::Fifo,
                           obs::EventKind::FollowerEnqueued, id_,
                           static_cast<std::int64_t>(msg.key),
                           static_cast<std::int64_t>(txn->vfifoId));
    progress_.notifyAll();
    switch (model_) {
      case PersistModel::Synch:
        if (cfg_.mutations.ackBeforePersist) {
            // Mutation: acknowledge durability before it exists.
            send_ack(MsgType::ACK, sim_.now() - t_handle0);
            txn->dfifoId = co_await dfifo_.enqueue(msg.key, msg.value,
                                                   msg.tsWr,
                                                   cfg_.recordBytes);
        } else {
            txn->dfifoId = co_await dfifo_.enqueue(msg.key, msg.value,
                                                   msg.tsWr,
                                                   cfg_.recordBytes);
            send_ack(MsgType::ACK, sim_.now() - t_handle0);
        }
        ++counters_.persists;
        if (cfg_.mutations.duplicateAck)
            send_ack(MsgType::ACK, sim_.now() - t_handle0);
        break;
      case PersistModel::Strict:
      case PersistModel::REnf:
        send_ack(MsgType::ACK_C, sim_.now() - t_handle0);
        if (cfg_.mutations.duplicateAck)
            send_ack(MsgType::ACK_C, sim_.now() - t_handle0);
        if (cfg_.mutations.ackBeforePersist) {
            send_ack(MsgType::ACK_P, sim_.now() - t_handle0);
            txn->dfifoId = co_await dfifo_.enqueue(msg.key, msg.value,
                                                   msg.tsWr,
                                                   cfg_.recordBytes);
        } else {
            txn->dfifoId = co_await dfifo_.enqueue(msg.key, msg.value,
                                                   msg.tsWr,
                                                   cfg_.recordBytes);
            send_ack(MsgType::ACK_P, sim_.now() - t_handle0);
        }
        ++counters_.persists;
        break;
      case PersistModel::Event:
      case PersistModel::Scope:
        send_ack(ackCType(), sim_.now() - t_handle0);
        if (cfg_.mutations.duplicateAck)
            send_ack(ackCType(), sim_.now() - t_handle0);
        dfifoInBackground(msg.key, msg.value, msg.tsWr, msg.scope,
                          cfg_.recordBytes);
        break;
    }
}

sim::Task<void>
NodeO::snicOnVal(Message msg)
{
    co_await snicCores_.compute(cfg_.bookkeepNs);
    Record &rec = store_.at(msg.key);

    auto it = pending_.find(txnKey(msg.key, msg.tsWr));
    TxnPtr txn = (it != pending_.end()) ? it->second : nullptr;

    switch (msg.type) {
      case MsgType::VAL:
        raiseGlbVolatile(rec, msg.key, msg.tsWr);
        raiseGlbDurable(rec, msg.key, msg.tsWr);
        break;
      case MsgType::VAL_C:
      case MsgType::VAL_C_SC:
        raiseGlbVolatile(rec, msg.key, msg.tsWr);
        break;
      case MsgType::VAL_P:
        raiseGlbDurable(rec, msg.key, msg.tsWr);
        // Wait for the VAL_C side to finish before retiring (VAL_C is
        // sent first but its handler may still be draining).
        if (txn) {
            co_await progress_.until(
                [&] { return txn->releasedByValC; });
            pending_.erase(txnKey(msg.key, msg.tsWr));
            progress_.notifyAll();
        }
        co_return;
      case MsgType::VAL_P_SC:
        co_return; // terminates the [PERSIST]sc at the follower
      default:
        MINOS_PANIC("unexpected VAL type ", net::msgTypeName(msg.type));
    }

    if (!txn)
        co_return; // VAL for an INV we cut short as obsolete: discarded

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
        cluster_.snicMulticast(id_, out, /*from_batched=*/false);
        co_await progress_.until(
            [&] { return scopeUnpersisted_[msg.scope] == 0; });
        // Persist the [PERSIST]sc marker itself (small dFIFO entry).
        co_await dfifo_.enqueueMarker(net::controlMsgBytes);
        // ACKs collected in snicOnAck; nothing else to do here.
        co_return;
    }

    // Follower SNIC: flush the scope's outstanding dFIFO enqueues,
    // persist the marker, acknowledge. The ackBeforePersist mutation
    // skips the scope-flush wait, certifying durability the node does
    // not have.
    if (!cfg_.mutations.ackBeforePersist) {
        co_await progress_.until(
            [&] { return scopeUnpersisted_[msg.scope] == 0; });
    }
    co_await dfifo_.enqueueMarker(net::controlMsgBytes);
    traceEvent(obs::Category::Protocol, obs::EventKind::AckSent,
               static_cast<std::int64_t>(msg.scope), 0,
               obs::ackAux(obs::AckFlavor::ScopePersist, id_));
    Message resp = net::makeResponse(msg, MsgType::ACK_P_SC);
    resp.handleNs = sim_.now() - t_handle0;
    cluster_.snicUnicast(resp);
}

void
NodeO::dfifoInBackground(Key key, Value value, Timestamp ts,
                         ScopeId scope, std::uint32_t bytes)
{
    if (isScopeModel(model_))
        ++scopeUnpersisted_[scope];
    struct Launcher
    {
        static sim::Process
        run(NodeO *self, Key key, Value value, Timestamp ts,
            ScopeId scope, std::uint32_t bytes)
        {
            co_await self->dfifo_.enqueue(key, value, ts, bytes);
            ++self->counters_.persists;
            if (isScopeModel(self->model_)) {
                if (--self->scopeUnpersisted_[scope] == 0)
                    self->progress_.notifyAll();
            }
        }
    };
    sim_.spawn(Launcher::run(this, key, value, ts, scope, bytes));
}

nvm::DurableDb
NodeO::durableDb() const
{
    nvm::DurableDb db;
    log_.applyTo(db);
    return db;
}

} // namespace minos::snic
