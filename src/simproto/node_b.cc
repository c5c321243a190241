#include "node_b.hh"

#include "simproto/cluster_b.hh"
#include "simproto/trace_map.hh"

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
    : sim_(sim), cluster_(cluster), cfg_(cfg), model_(model), id_(id),
      store_(cfg.numRecords), nvm_(cfg.persistNsPerKb),
      cores_(sim, cfg.hostCores), rx_(sim), progress_(sim)
{
    sim_.spawn(dispatcher());
}

// ---------------------------------------------------------------------
// Primitives (paper §III-A)
// ---------------------------------------------------------------------

bool
NodeB::obsolete(const Record &rec, const Timestamp &ts) const
{
    return kv::isObsolete(rec, ts);
}

sim::Task<void>
NodeB::handleObsolete(Key key, Timestamp observed)
{
    Record &rec = store_.at(key);
    // ConsistencySpin: wait until the newer write that obsoleted us is
    // visible cluster-wide (its glb_volatileTS reflects it).
    co_await progress_.until(
        [&] { return rec.glbVolatileTs >= observed; });
    // PersistencySpin: only models that stall accesses on outstanding
    // persists need it (Fig. 3: Event and Scope skip it).
    if (needsPersistencySpin(model_))
        co_await progress_.until(
            [&] { return rec.glbDurableTs >= observed; });
}

void
NodeB::snatchRdLock(Record &rec, const Timestamp &ts)
{
    // (i) free -> grab; (ii) held by an older write -> snatch;
    // (iii) held by a younger write -> continue without it.
    if (rec.rdLockOwner < ts) {
        rec.rdLockOwner = ts;
        ++counters_.rdLockSnatches;
    }
}

void
NodeB::releaseRdLockIfOwner(Record &rec, Key key, const Timestamp &ts)
{
    if (rec.rdLockOwner == ts) {
        rec.rdLockOwner = Timestamp::none();
        if (cfg_.trace)
            cfg_.trace->record(sim_.now(), obs::Category::Lock,
                               obs::EventKind::RdLockReleased, id_,
                               static_cast<std::int64_t>(key),
                               static_cast<std::int64_t>(ts.pack()));
        progress_.notifyAll();
    }
}

sim::Task<void>
NodeB::grabWrLock(Record &rec)
{
    for (;;) {
        // One CAS attempt costs the host synchronization latency.
        co_await cores_.compute(cfg_.hostSyncNs);
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

void
NodeB::raiseGlbVolatile(Record &rec, Key key, const Timestamp &ts)
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
NodeB::raiseGlbDurable(Record &rec, Key key, const Timestamp &ts)
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
NodeB::makeWriteTs(Key key, Record &rec)
{
    // Paper: version = coordinator's volatileTS version + 1. Concurrent
    // local writers would collide on that rule alone, so a per-record
    // monotonic guard keeps locally-issued TS_WR unique; cross-node ties
    // are broken by node_id as usual.
    auto &next = nextLocalVersion_[key];
    std::int64_t ver = std::max(rec.volatileTs.version + 1, next);
    next = ver + 1;
    return Timestamp{ver, id_};
}

sim::Task<void>
NodeB::persistToNvm(Key key, Value value, Timestamp ts, ScopeId)
{
    // The core issues the persist (flush/drain instructions) and then
    // waits for the medium off-core; the event-driven runtime serves
    // other work meanwhile.
    Tick t0 = sim_.now();
    Tick lat = nvm_.persistLatency(cfg_.recordBytes);
    Tick issue = std::min<Tick>(lat, 200);
    co_await cores_.compute(issue);
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
    if (isScopeModel(model_))
        ++scopeUnpersisted_[scope];
    struct Launcher
    {
        static sim::Process
        run(NodeB *self, Key key, Value value, Timestamp ts,
            ScopeId scope)
        {
            co_await self->persistToNvm(key, value, ts, scope);
            if (isScopeModel(self->model_)) {
                if (--self->scopeUnpersisted_[scope] == 0)
                    self->progress_.notifyAll();
            }
            // The REnf coordinator's background tail gates on the local
            // persist completing.
            auto it = self->pending_.find(txnKey(key, ts));
            if (it != self->pending_.end() && ts.node == self->id_) {
                it->second.localPersistDone = true;
                self->progress_.notifyAll();
            }
        }
    };
    sim_.spawn(Launcher::run(this, key, value, ts, scope));
}

// ---------------------------------------------------------------------
// Message-type selection per model
// ---------------------------------------------------------------------

MsgType
NodeB::invType() const
{
    return isScopeModel(model_) ? MsgType::INV_SC : MsgType::INV;
}

MsgType
NodeB::ackCType() const
{
    if (model_ == PersistModel::Synch)
        return MsgType::ACK;
    return isScopeModel(model_) ? MsgType::ACK_C_SC : MsgType::ACK_C;
}

MsgType
NodeB::valCType() const
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

// ---------------------------------------------------------------------
// Messaging
// ---------------------------------------------------------------------

void
NodeB::sendInvs(Key key, Value value, Timestamp ts, ScopeId scope)
{
    Message m;
    m.type = invType();
    m.src = id_;
    m.key = key;
    m.tsWr = ts;
    m.value = value;
    m.scope = scope;
    m.sizeBytes = cfg_.recordBytes + net::controlMsgBytes;
    counters_.invsSent += static_cast<std::uint64_t>(cfg_.followers());
    cluster_.multicast(id_, m);
}

void
NodeB::sendVals(MsgType type, Key key, Timestamp ts, ScopeId scope)
{
    Message m;
    m.type = type;
    m.src = id_;
    m.key = key;
    m.tsWr = ts;
    m.scope = scope;
    m.sizeBytes = net::controlMsgBytes;
    counters_.valsSent += static_cast<std::uint64_t>(cfg_.followers());
    traceEvent(obs::Category::Message, obs::EventKind::ValSent,
               static_cast<std::int64_t>(key),
               static_cast<std::int64_t>(ts.pack()),
               static_cast<std::uint16_t>(valFlavorOf(type)));
    cluster_.multicast(id_, m);
}

sim::Task<void>
NodeB::sendResponse(const Message &req, MsgType type, Tick handle_ns)
{
    // Laid before the tx-path compute: the ACK certifies this node's
    // state at the moment it decides to acknowledge.
    if (type == MsgType::ACK_P_SC)
        traceEvent(obs::Category::Protocol, obs::EventKind::AckSent,
                   static_cast<std::int64_t>(req.scope), 0,
                   obs::ackAux(ackFlavorOf(type), id_));
    else
        traceEvent(obs::Category::Protocol, obs::EventKind::AckSent,
                   static_cast<std::int64_t>(req.key),
                   static_cast<std::int64_t>(req.tsWr.pack()),
                   obs::ackAux(ackFlavorOf(type), id_));
    co_await cores_.compute(cfg_.hostSendNs);
    ++counters_.acksSent;
    Message resp = net::makeResponse(req, type);
    resp.handleNs = handle_ns;
    cluster_.unicast(resp);
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
    co_await cores_.compute(cfg_.clientReqNs);

    Record &rec = store_.at(key);
    Timestamp ts = makeWriteTs(key, rec);
    traceEvent(obs::Category::Protocol, obs::EventKind::ClientOpBegin,
               static_cast<std::int64_t>(key),
               static_cast<std::int64_t>(ts.pack()),
               obs::opAux(obs::OpType::Write, false));

    // Line 5: early obsoleteness check.
    if (obsolete(rec, ts)) {
        Timestamp observed = rec.volatileTs;
        co_await handleObsolete(key, observed);
        st.obsolete = true;
        st.latencyNs = sim_.now() - t0;
        st.compNs = static_cast<double>(st.latencyNs);
        traceEvent(obs::Category::Protocol,
                   obs::EventKind::ClientOpEnd,
                   static_cast<std::int64_t>(key),
                   static_cast<std::int64_t>(ts.pack()),
                   obs::opAux(obs::OpType::Write, true));
        co_return st;
    }

    // Line 8: Snatch RDLock (one CAS).
    Tick t_lock0 = sim_.now();
    co_await cores_.compute(cfg_.hostSyncNs);
    snatchRdLock(rec, ts);

    // Line 9: grab WRLock (spin).
    co_await grabWrLock(rec);
    Tick t_lock1 = sim_.now();

    bool sent = false;
    PendingTxn *txn = nullptr;
    // Line 10: final timestamp check under the WRLock.
    if (!obsolete(rec, ts)) {
        auto [it, inserted] = pending_.emplace(txnKey(key, ts), PendingTxn{});
        MINOS_ASSERT(inserted, "duplicate TS_WR ", ts);
        txn = &it->second;
        txn->needed = cfg_.followers();

        // Line 11: send INVs to all Followers.
        co_await cores_.compute(
            opts().batching ? cfg_.hostSendNs
                            : cfg_.hostSendNs * cfg_.followers());
        txn->tFirstSend = sim_.now();
        sendInvs(key, value, ts, scope);
        traceEvent(obs::Category::Message, obs::EventKind::InvFanout,
                   static_cast<std::int64_t>(key),
                   static_cast<std::int64_t>(ts.pack()));
        if (isScopeModel(model_))
            traceEvent(obs::Category::Protocol,
                       obs::EventKind::ScopeMark,
                       (static_cast<std::int64_t>(scope) << 32) |
                           static_cast<std::int64_t>(key),
                       static_cast<std::int64_t>(ts.pack()));
        obs::recordSpan(cfg_.trace, cfg_.phases, obs::Phase::LockWait,
                        t_lock0, t_lock1, id_,
                        static_cast<std::int64_t>(ts.pack()));
        obs::recordSpan(cfg_.trace, cfg_.phases, obs::Phase::InvFanout,
                        t_lock1, txn->tFirstSend, id_,
                        static_cast<std::int64_t>(ts.pack()));
        sent = true;

        // Line 12: update local volatile state (LLC) + volatileTS.
        co_await cores_.compute(cfg_.llcWriteNs);
        rec.value = value;
        rec.volatileTs = ts;
        progress_.notifyAll();

        // Line 13: release WRLock.
        releaseWrLock(rec);
    } else {
        st.obsolete = true;
        ++counters_.writesObsoleteCut;
        traceEvent(obs::Category::Protocol,
                   obs::EventKind::InvObsolete,
                   static_cast<std::int64_t>(key),
                   static_cast<std::int64_t>(ts.pack()));
        Timestamp observed = rec.volatileTs;
        // Lines 15-16: release WRLock first, then handleObsolete.
        releaseWrLock(rec);
        co_await handleObsolete(key, observed);
        // Lines 20-21 apply on this path too: if the (already complete)
        // newer write released the RDLock before our snatch, we may be a
        // stale owner; release so reads are not blocked forever.
        releaseRdLockIfOwner(rec, key, ts);
    }

    if (!sent) {
        st.latencyNs = sim_.now() - t0;
        st.compNs = static_cast<double>(st.latencyNs);
        traceEvent(obs::Category::Protocol,
                   obs::EventKind::ClientOpEnd,
                   static_cast<std::int64_t>(key),
                   static_cast<std::int64_t>(ts.pack()),
                   obs::opAux(obs::OpType::Write, true));
        co_return st;
    }

    if (cfg_.mutations.releaseRdLockEarly)
        releaseRdLockIfOwner(rec, key, ts);

    // Line 18 / Fig. 3 step d: persist to NVM (critical path only for
    // Synch and Strict; background otherwise).
    if (persistOnCriticalPath(model_)) {
        co_await persistToNvm(key, value, ts, scope);
        txn->localPersistDone = true;
    } else {
        persistInBackground(key, value, ts, scope);
    }

    // Line 19 / Fig. 3 step e: wait for the gating ACK set.
    co_await waitClientGate(*txn);
    Tick t_gate = sim_.now();

    // Post-gate per-model completion (Fig. 2 lines 20-22, Fig. 3 f).
    // Retiring the txn erases its pending_ entry, so snapshot the timing
    // fields needed for the comm/comp split before the erase.
    PendingTxn done;
    switch (model_) {
      case PersistModel::Synch:
        raiseGlbVolatile(rec, key, ts);
        raiseGlbDurable(rec, key, ts);
        releaseRdLockIfOwner(rec, key, ts);
        co_await cores_.compute(cfg_.hostSendNs * cfg_.followers());
        sendVals(MsgType::VAL, key, ts, scope);
        done = *txn;
        pending_.erase(txnKey(key, ts));
        break;

      case PersistModel::Strict: {
        // Gate was ACK_C; send VAL_Cs, then spin for ACK_Ps, then
        // VAL_Ps (Fig. 3(i) step f).
        raiseGlbVolatile(rec, key, ts);
        releaseRdLockIfOwner(rec, key, ts);
        co_await cores_.compute(cfg_.hostSendNs * cfg_.followers());
        sendVals(MsgType::VAL_C, key, ts, scope);
        co_await progress_.until([&] {
            return txn->acksP >= persistNeeded(*txn) &&
                   txn->localPersistDone;
        });
        raiseGlbDurable(rec, key, ts);
        co_await cores_.compute(cfg_.hostSendNs * cfg_.followers());
        sendVals(MsgType::VAL_P, key, ts, scope);
        done = *txn;
        pending_.erase(txnKey(key, ts));
        break;
      }

      case PersistModel::REnf:
        // Return to the client after all ACK_Cs; the RDLock stays held
        // and VALs go out when all ACK_Ps have arrived (Fig. 3(iii)).
        raiseGlbVolatile(rec, key, ts);
        done = *txn;
        sim_.spawn(renfTail(key, ts));
        break;

      case PersistModel::Event:
      case PersistModel::Scope:
        raiseGlbVolatile(rec, key, ts);
        releaseRdLockIfOwner(rec, key, ts);
        co_await cores_.compute(cfg_.hostSendNs * cfg_.followers());
        sendVals(valCType(), key, ts, scope);
        done = *txn;
        pending_.erase(txnKey(key, ts));
        break;
    }

    // Spans for the gather/completion phases; every timestamp was taken
    // at an await point the protocol already had, so recording them
    // never moves simulated time.
    if (cfg_.trace || cfg_.phases) {
        auto token = static_cast<std::int64_t>(ts.pack());
        if (done.tGateAck >= done.tFirstSend && done.handleCnt > 0)
            obs::recordSpan(cfg_.trace, cfg_.phases,
                            obs::Phase::AckGather, done.tFirstSend,
                            done.tGateAck, id_, token);
        obs::recordSpan(cfg_.trace, cfg_.phases, obs::Phase::Val,
                        t_gate, sim_.now(), id_, token);
    }

    st.latencyNs = sim_.now() - t0;
    // Communication/computation split (paper §IV): message in-flight
    // window minus the average follower handling time.
    if (done.handleCnt > 0 && done.tGateAck > done.tFirstSend) {
        double handle_avg = static_cast<double>(done.handleNsSum) /
                            done.handleCnt;
        double comm =
            static_cast<double>(done.tGateAck - done.tFirstSend) -
            handle_avg;
        if (comm < 0)
            comm = 0;
        if (comm > static_cast<double>(st.latencyNs))
            comm = static_cast<double>(st.latencyNs);
        st.commNs = comm;
    }
    st.compNs = static_cast<double>(st.latencyNs) - st.commNs;
    traceEvent(obs::Category::Protocol, obs::EventKind::ClientOpEnd,
               static_cast<std::int64_t>(key),
               static_cast<std::int64_t>(ts.pack()),
               obs::opAux(obs::OpType::Write, false));
    co_return st;
}

sim::Task<void>
NodeB::waitClientGate(PendingTxn &txn)
{
    switch (model_) {
      case PersistModel::Synch:
        co_await progress_.until([&] { return txn.acks >= txn.needed; });
        break;
      case PersistModel::Strict:
        co_await progress_.until([&] { return txn.acksC >= txn.needed; });
        // Client return additionally needs all ACK_Ps; but VAL_C goes
        // out first (handled by the caller).
        break;
      case PersistModel::REnf:
      case PersistModel::Event:
      case PersistModel::Scope:
        co_await progress_.until([&] { return txn.acksC >= txn.needed; });
        break;
    }
}

sim::Process
NodeB::renfTail(Key key, Timestamp ts)
{
    Record &rec = store_.at(key);
    auto it = pending_.find(txnKey(key, ts));
    MINOS_ASSERT(it != pending_.end(), "REnf tail without pending txn");
    PendingTxn &txn = it->second;
    co_await progress_.until([&] {
        return txn.acksP >= persistNeeded(txn) && txn.localPersistDone;
    });
    raiseGlbDurable(rec, key, ts);
    releaseRdLockIfOwner(rec, key, ts);
    co_await cores_.compute(cfg_.hostSendNs * cfg_.followers());
    sendVals(MsgType::VAL, key, ts, /*scope=*/0);
    pending_.erase(txnKey(key, ts));
}

// ---------------------------------------------------------------------
// Client-read (paper §III-D)
// ---------------------------------------------------------------------

sim::Task<OpStats>
NodeB::clientRead(Key key)
{
    OpStats st;
    Tick t0 = sim_.now();
    traceEvent(obs::Category::Protocol, obs::EventKind::ClientOpBegin,
               static_cast<std::int64_t>(key), 0,
               obs::opAux(obs::OpType::Read, false));
    co_await cores_.compute(cfg_.clientReqNs);
    Record &rec = store_.at(key);
    // A read stalls only while the RDLock is taken by a write. The value
    // and its TS are taken the moment the lock is seen free: an INV that
    // lands during the LLC read latency is not part of this read.
    co_await progress_.until([&] { return rec.rdLockFree(); });
    st.value = rec.value;
    Timestamp seen = rec.volatileTs;
    co_await cores_.compute(cfg_.llcReadNs);
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
    co_await cores_.compute(cfg_.clientReqNs);
    auto [it, inserted] = scopePending_.emplace(scope, PendingTxn{});
    MINOS_ASSERT(inserted, "duplicate [PERSIST]sc for scope ", scope);
    PendingTxn &txn = it->second;
    txn.needed = cfg_.followers();

    // Send [PERSIST]sc to all followers.
    co_await cores_.compute(cfg_.hostSendNs * cfg_.followers());
    Message m;
    m.type = MsgType::PERSIST_SC;
    m.src = id_;
    m.scope = scope;
    m.sizeBytes = net::controlMsgBytes;
    cluster_.multicast(id_, m);

    // Complete persisting all local WRs inside the scope, then the
    // [PERSIST]sc marker itself.
    co_await progress_.until(
        [&] { return scopeUnpersisted_[scope] == 0; });
    co_await cores_.compute(nvm_.persistLatency(net::controlMsgBytes));

    // Spin for all [ACK_P]sc, then send [VAL_P]sc.
    co_await progress_.until([&] { return txn.acksP >= txn.needed; });
    co_await cores_.compute(cfg_.hostSendNs * cfg_.followers());
    traceEvent(obs::Category::Protocol, obs::EventKind::ValSent,
               static_cast<std::int64_t>(scope), 0,
               static_cast<std::uint16_t>(obs::ValFlavor::ValPSc));
    Message val;
    val.type = MsgType::VAL_P_SC;
    val.src = id_;
    val.scope = scope;
    val.sizeBytes = net::controlMsgBytes;
    cluster_.multicast(id_, val);
    scopePending_.erase(scope);

    traceEvent(obs::Category::Protocol, obs::EventKind::ClientOpEnd,
               static_cast<std::int64_t>(scope), 0,
               obs::opAux(obs::OpType::PersistSc, false));
    st.latencyNs = sim_.now() - t0;
    st.compNs = static_cast<double>(st.latencyNs);
    co_return st;
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
    co_await cores_.compute(cfg_.dispatchNs);
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

    // Lines 27-30: obsolete INV -> spin as required, then ACK as if the
    // write was performed. The VAL received later is discarded.
    if (obsolete(rec, msg.tsWr)) {
        ++obsoleteInvs_;
        ++counters_.invsObsolete;
        if (cfg_.trace)
            cfg_.trace->record(sim_.now(), obs::Category::Protocol,
                               obs::EventKind::InvObsolete, id_,
                               static_cast<std::int64_t>(msg.key),
                               static_cast<std::int64_t>(
                                   msg.tsWr.pack()));
        Timestamp observed = rec.volatileTs;
        if (usesSplitAcks(model_)) {
            // Fig. 3(ii)/(iv)/(vi)/(viii): ConsistencySpin, ACK_C, then
            // (Strict/REnf only) PersistencySpin, ACK_P.
            co_await progress_.until(
                [&] { return rec.glbVolatileTs >= observed; });
            co_await sendResponse(msg, ackCType(),
                                  sim_.now() - t_handle0);
            if (tracksPersistPerWrite(model_)) {
                co_await progress_.until(
                    [&] { return rec.glbDurableTs >= observed; });
                co_await sendResponse(msg, MsgType::ACK_P,
                                      sim_.now() - t_handle0);
            }
        } else {
            co_await handleObsolete(msg.key, observed);
            co_await sendResponse(msg, MsgType::ACK,
                                  sim_.now() - t_handle0);
        }
        co_return;
    }

    // Lines 31-33: snatch RDLock, grab WRLock.
    co_await cores_.compute(cfg_.hostSyncNs);
    snatchRdLock(rec, msg.tsWr);
    co_await grabWrLock(rec);

    // Lines 34-38: re-check, update LLC or handle obsolete.
    if (!obsolete(rec, msg.tsWr)) {
        co_await cores_.compute(cfg_.llcWriteNs);
        rec.value = msg.value;
        rec.volatileTs = msg.tsWr;
        if (cfg_.trace)
            cfg_.trace->record(sim_.now(), obs::Category::Protocol,
                               obs::EventKind::InvApplied, id_,
                               static_cast<std::int64_t>(msg.key),
                               static_cast<std::int64_t>(
                                   msg.tsWr.pack()));
        progress_.notifyAll();
        releaseWrLock(rec);
    } else {
        ++obsoleteInvs_;
        traceEvent(obs::Category::Protocol, obs::EventKind::InvObsolete,
                   static_cast<std::int64_t>(msg.key),
                   static_cast<std::int64_t>(msg.tsWr.pack()));
        Timestamp observed = rec.volatileTs;
        releaseWrLock(rec);
        if (usesSplitAcks(model_)) {
            co_await progress_.until(
                [&] { return rec.glbVolatileTs >= observed; });
            co_await sendResponse(msg, ackCType(),
                                  sim_.now() - t_handle0);
            if (tracksPersistPerWrite(model_)) {
                co_await progress_.until(
                    [&] { return rec.glbDurableTs >= observed; });
                co_await sendResponse(msg, MsgType::ACK_P,
                                      sim_.now() - t_handle0);
            }
        } else {
            co_await handleObsolete(msg.key, observed);
            co_await sendResponse(msg, MsgType::ACK,
                                  sim_.now() - t_handle0);
        }
        // We snatched before discovering obsoleteness; if the newer
        // write already came and went, we are a stale owner — release
        // so local reads are not blocked forever.
        releaseRdLockIfOwner(rec, msg.key, msg.tsWr);
        co_return;
    }

    // Lines 39-40 / Fig. 3 follower deltas: persist + acknowledge.
    switch (model_) {
      case PersistModel::Synch:
        // Persist in the critical path, then the single combined ACK.
        if (cfg_.mutations.ackBeforePersist) {
            // Mutation: acknowledge durability before it exists.
            co_await sendResponse(msg, MsgType::ACK,
                                  sim_.now() - t_handle0);
            co_await persistToNvm(msg.key, msg.value, msg.tsWr,
                                  msg.scope);
        } else {
            co_await persistToNvm(msg.key, msg.value, msg.tsWr,
                                  msg.scope);
            co_await sendResponse(msg, MsgType::ACK,
                                  sim_.now() - t_handle0);
        }
        if (cfg_.mutations.duplicateAck)
            co_await sendResponse(msg, MsgType::ACK,
                                  sim_.now() - t_handle0);
        break;

      case PersistModel::Strict:
      case PersistModel::REnf:
        // ACK_C right after the LLC update; ACK_P after the persist.
        co_await sendResponse(msg, MsgType::ACK_C,
                              sim_.now() - t_handle0);
        if (cfg_.mutations.duplicateAck)
            co_await sendResponse(msg, MsgType::ACK_C,
                                  sim_.now() - t_handle0);
        if (cfg_.mutations.ackBeforePersist) {
            co_await sendResponse(msg, MsgType::ACK_P,
                                  sim_.now() - t_handle0);
            co_await persistToNvm(msg.key, msg.value, msg.tsWr,
                                  msg.scope);
        } else {
            co_await persistToNvm(msg.key, msg.value, msg.tsWr,
                                  msg.scope);
            co_await sendResponse(msg, MsgType::ACK_P,
                                  sim_.now() - t_handle0);
        }
        break;

      case PersistModel::Event:
      case PersistModel::Scope:
        // ACK_C after the LLC update; persist in the background.
        co_await sendResponse(msg, ackCType(), sim_.now() - t_handle0);
        if (cfg_.mutations.duplicateAck)
            co_await sendResponse(msg, ackCType(),
                                  sim_.now() - t_handle0);
        persistInBackground(msg.key, msg.value, msg.tsWr, msg.scope);
        break;
    }
}

sim::Task<void>
NodeB::onAck(Message msg, Tick t_rx)
{
    co_await cores_.compute(cfg_.bookkeepNs);
    // Recorded before the pending-table lookups so stray ACKs (for
    // already-retired transactions) are still visible to the auditors.
    if (msg.type == MsgType::ACK_P_SC)
        traceEvent(obs::Category::Protocol, obs::EventKind::AckReceived,
                   static_cast<std::int64_t>(msg.scope), 0,
                   obs::ackAux(ackFlavorOf(msg.type), msg.src));
    else
        traceEvent(obs::Category::Protocol, obs::EventKind::AckReceived,
                   static_cast<std::int64_t>(msg.key),
                   static_cast<std::int64_t>(msg.tsWr.pack()),
                   obs::ackAux(ackFlavorOf(msg.type), msg.src));
    if (msg.type == MsgType::ACK_P_SC) {
        // [PERSIST]sc acknowledgement.
        auto it = scopePending_.find(msg.scope);
        if (it != scopePending_.end()) {
            ++it->second.acksP;
            progress_.notifyAll();
        }
        co_return;
    }

    auto it = pending_.find(txnKey(msg.key, msg.tsWr));
    if (it == pending_.end())
        co_return; // stray ACK for a completed transaction
    PendingTxn &txn = it->second;

    // Which ACK family gates the client response for this model?
    MsgType gate;
    switch (model_) {
      case PersistModel::Synch: gate = MsgType::ACK; break;
      case PersistModel::Strict: gate = MsgType::ACK_P; break;
      case PersistModel::Scope: gate = MsgType::ACK_C_SC; break;
      default: gate = MsgType::ACK_C; break;
    }

    switch (msg.type) {
      case MsgType::ACK: ++txn.acks; break;
      case MsgType::ACK_C:
      case MsgType::ACK_C_SC: ++txn.acksC; break;
      case MsgType::ACK_P: ++txn.acksP; break;
      default:
        MINOS_PANIC("unexpected ACK type ", net::msgTypeName(msg.type));
    }
    if (msg.type == gate) {
        // The communication window ends when the ACK reaches the host
        // receive queue (paper SIV), not when this handler runs.
        txn.tGateAck = t_rx;
        txn.handleNsSum += msg.handleNs;
        ++txn.handleCnt;
    }
    progress_.notifyAll();
}

sim::Task<void>
NodeB::onVal(Message msg)
{
    co_await cores_.compute(cfg_.bookkeepNs);
    Record &rec = store_.at(msg.key);
    switch (msg.type) {
      case MsgType::VAL:
        // Synch and REnf: single VAL marks consistency + persistency.
        raiseGlbVolatile(rec, msg.key, msg.tsWr);
        raiseGlbDurable(rec, msg.key, msg.tsWr);
        releaseRdLockIfOwner(rec, msg.key, msg.tsWr);
        break;
      case MsgType::VAL_C:
      case MsgType::VAL_C_SC:
        raiseGlbVolatile(rec, msg.key, msg.tsWr);
        releaseRdLockIfOwner(rec, msg.key, msg.tsWr);
        break;
      case MsgType::VAL_P:
        raiseGlbDurable(rec, msg.key, msg.tsWr);
        break;
      case MsgType::VAL_P_SC:
        // Terminates the [PERSIST]sc transaction at the follower.
        break;
      default:
        MINOS_PANIC("unexpected VAL type ", net::msgTypeName(msg.type));
    }
    co_return;
}

sim::Task<void>
NodeB::onPersistSc(Message msg, Tick t_handle0)
{
    // Complete persisting all WRs of the scope, persist the [PERSIST]sc
    // itself, then acknowledge. The ackBeforePersist mutation skips the
    // scope-flush wait, certifying durability the node does not have.
    if (!cfg_.mutations.ackBeforePersist) {
        co_await progress_.until(
            [&] { return scopeUnpersisted_[msg.scope] == 0; });
    }
    co_await cores_.compute(nvm_.persistLatency(net::controlMsgBytes));
    co_await sendResponse(msg, MsgType::ACK_P_SC, sim_.now() - t_handle0);
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

nvm::DurableDb
NodeB::durableDb() const
{
    nvm::DurableDb db;
    log_.applyTo(db);
    return db;
}

const OffloadOptions &
NodeB::opts() const
{
    return cluster_.options();
}

} // namespace minos::simproto
