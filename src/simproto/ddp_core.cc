#include "ddp_core.hh"

namespace minos::simproto {

using kv::Key;
using kv::Record;
using kv::Timestamp;
using net::Message;
using net::MsgType;
using S = FollowerStep;

namespace {

/** Fig. 2 lines 39-40 and the Fig. 3 follower deltas, with the
 *  follower-side mutation hooks applied. */
FollowerSchedule
appliedSchedule(PersistModel m, const ClusterConfig::MutationHooks &mut)
{
    FollowerSchedule s;
    // The durable acknowledgement follows the persist; the
    // ackBeforePersist mutation acknowledges durability before it
    // exists.
    auto durable = [&](S ack) {
        s.push(mut.ackBeforePersist ? ack : S::Persist);
        s.push(mut.ackBeforePersist ? S::Persist : ack);
    };
    switch (m) {
      case PersistModel::Synch:
        // Persist in the critical path, then the single combined ACK.
        durable(S::AckC);
        if (mut.duplicateAck)
            s.push(S::AckC);
        break;
      case PersistModel::Strict:
      case PersistModel::REnf:
        // ACK_C right after the LLC update; ACK_P after the persist.
        s.push(S::AckC);
        if (mut.duplicateAck)
            s.push(S::AckC);
        durable(S::AckP);
        break;
      case PersistModel::Event:
      case PersistModel::Scope:
        // ACK_C after the LLC update; persist in the background.
        s.push(S::AckC);
        if (mut.duplicateAck)
            s.push(S::AckC);
        s.push(S::PersistLater);
        break;
    }
    return s;
}

/** Fig. 2 lines 27-30 and Fig. 3(ii)/(iv)/(vi)/(viii): the spins and
 *  ACKs of an obsolete INV. The VAL received later is discarded. */
FollowerSchedule
obsoleteSchedule(PersistModel m)
{
    FollowerSchedule s;
    s.push(S::AwaitGlbVolatile);
    if (!usesSplitAcks(m)) {
        // handleObsolete(), then the combined ACK.
        s.push(S::AwaitGlbDurable);
        s.push(S::AckC);
        return s;
    }
    s.push(S::AckC);
    if (tracksPersistPerWrite(m)) {
        s.push(S::AwaitGlbDurable);
        s.push(S::AckP);
    }
    return s;
}

} // namespace

DdpCore::DdpCore(sim::Simulator &sim, const ClusterConfig &cfg,
                 PersistModel model, kv::NodeId id)
    : sim_(sim), cfg_(cfg), model_(model), id_(id),
      store_(cfg.numRecords), hostCores_(sim, cfg.hostCores),
      progress_(sim), appliedSteps_(appliedSchedule(model, cfg.mutations)),
      obsoleteSteps_(obsoleteSchedule(model))
{
}

sim::Task<void>
DdpCore::handleObsolete(Key key, Timestamp observed)
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

sim::Task<OpStats>
DdpCore::clientRead(Key key)
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
    co_return finishOp(st, t0, obs::OpType::Read,
                       static_cast<std::int64_t>(key),
                       static_cast<std::int64_t>(seen.pack()));
}

Message
DdpCore::makeInv(Key key, kv::Value value, Timestamp ts,
                 net::ScopeId scope)
{
    Message m;
    m.type = invType(model_);
    m.src = id_;
    m.key = key;
    m.tsWr = ts;
    m.value = value;
    m.scope = scope;
    m.sizeBytes = cfg_.recordBytes + net::controlMsgBytes;
    counters_.invsSent += static_cast<std::uint64_t>(cfg_.followers());
    traceEvent(obs::Category::Message, obs::EventKind::InvFanout,
               static_cast<std::int64_t>(key),
               static_cast<std::int64_t>(ts.pack()));
    if (isScopeModel(model_))
        traceEvent(obs::Category::Protocol, obs::EventKind::ScopeMark,
                   (static_cast<std::int64_t>(scope) << 32) |
                       static_cast<std::int64_t>(key),
                   static_cast<std::int64_t>(ts.pack()));
    return m;
}

Message
DdpCore::makeVal(MsgType type, Key key, Timestamp ts, net::ScopeId scope)
{
    Message m;
    m.type = type;
    m.src = id_;
    m.key = key;
    m.tsWr = ts;
    m.scope = scope;
    m.sizeBytes = net::controlMsgBytes;
    counters_.valsSent += static_cast<std::uint64_t>(cfg_.followers());
    // [VAL_P]sc is about a scope, not a write.
    bool scoped = type == MsgType::VAL_P_SC;
    traceEvent(obs::Category::Message, obs::EventKind::ValSent,
               static_cast<std::int64_t>(scoped ? scope : key),
               scoped ? 0 : static_cast<std::int64_t>(ts.pack()),
               static_cast<std::uint16_t>(valFlavorOf(type)));
    return m;
}

Message
DdpCore::makeAck(const Message &req, MsgType type, Tick handle_ns)
{
    ++counters_.acksSent;
    Message resp = net::makeResponse(req, type);
    resp.handleNs = handle_ns;
    return resp;
}

nvm::DurableDb
DdpCore::durableDb() const
{
    nvm::DurableDb db;
    log_.applyTo(db);
    return db;
}

} // namespace minos::simproto
