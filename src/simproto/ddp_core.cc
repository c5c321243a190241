#include "ddp_core.hh"

#include <coroutine>

namespace minos::simproto {

using kv::Key;
using kv::Record;
using kv::Timestamp;
using net::Message;
using net::MsgType;

DdpCore::DdpCore(sim::Simulator &sim, const ClusterConfig &cfg,
                 PersistModel model, kv::NodeId id)
    : sim_(sim), cfg_(cfg), model_(model), id_(id),
      store_(cfg.numRecords), hostCores_(sim, cfg.hostCores),
      progress_(sim), rx_(sim),
      appliedSteps_(appliedSchedule(model, cfg.mutations.ackBeforePersist,
                                    cfg.mutations.duplicateAck)),
      obsoleteSteps_(obsoleteSchedule(model)),
      coordinatorSteps_(coordinatorSchedule(
          model, cfg.mutations.releaseRdLockEarly)),
      returnGate_(coordinatorSteps_.gateOf(
          std::find(coordinatorSteps_.begin(), coordinatorSteps_.end(),
                    CoordinatorStep::Return)))
{
}

sim::Task<OpStats>
DdpCore::cutObsoleteWrite(Tick t0, Record &rec, Key key, Timestamp ts,
                          Timestamp observed)
{
    OpStats st;
    st.obsolete = true;
    countObsolete(&NodeCounters::writesObsoleteCut, key, ts);
    // handleObsolete(): the obsolete-INV spins on the newer write,
    // without their ACKs.
    co_await walkObsolete(key, observed,
                          [](MsgType) { return std::suspend_never{}; });
    // If the (already complete) newer write released the RDLock before
    // our snatch, we may be a stale owner; release so reads are not
    // blocked forever.
    releaseRdLockIfOwner(rec, key, ts);
    co_return finishOp(st, t0, obs::OpType::Write,
                       static_cast<std::int64_t>(key),
                       static_cast<std::int64_t>(ts.pack()));
}

sim::Task<void>
DdpCore::beginPersistScope(net::ScopeId scope)
{
    traceEvent(obs::Category::Protocol, obs::EventKind::ClientOpBegin,
               static_cast<std::int64_t>(scope), 0,
               obs::opAux(obs::OpType::PersistSc, false));
    co_await hostCores_.compute(cfg_.clientReqNs);
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
    Message m = net::makeInv(invType(model_), id_, key, value, ts, scope,
                             cfg_.recordBytes);
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
    Message m = net::makeVal(type, id_, key, ts, scope);
    counters_.valsSent += static_cast<std::uint64_t>(cfg_.followers());
    const kv::WriteId txn = net::txnOf(m);
    traceEvent(obs::Category::Message, obs::EventKind::ValSent,
               static_cast<std::int64_t>(txn.key),
               static_cast<std::int64_t>(txn.ts), obs::valAux(type));
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

} // namespace minos::simproto
