/**
 * @file
 * The record-level DDP protocol core shared by MINOS-B
 * (simproto/node_b) and MINOS-O (snic/node_o).
 *
 * MINOS-O does not change the DDP algorithm of Figs. 2-3: it runs the
 * same Table I state machine on a different processor (paper §V). So
 * the core owns the replica state both engines keep — the record store
 * with its durable state and TS_WR guard (replica_store.hh), the host
 * cores, the progress Condition, the counters and the per-scope
 * unpersisted counts — and defines each primitive over it once:
 * RDLock snatch/release, the glb raises, the local client read, the
 * walk of the follower's obsolete-INV steps and the coordinator's
 * write bookkeeping. The per-model step tables themselves live in
 * models.hh.
 * It is also the shell around them: the protocol processor's receive
 * queue and loop, which hands each message to the engine's handler of
 * its family; the client-write prologue and the obsolete-write cut;
 * the [PERSIST]sc prologue; the ACK tally step; and the scoped
 * background persist. Both engines walk the coordinator schedule of
 * models.hh with the gate and step helpers here. The engines keep only
 * what really differs: MINOS-B its WRLock and host persist; MINOS-O
 * its SNIC engine, vFIFO/dFIFO and PCIe host ACK mirror.
 *
 * The ACK tally and the gate arithmetic come from check/predicates.hh:
 * the audit ledger counts ACKs with the same AckTally, and the model
 * checker and the auditors ask the same predicates.
 */

#ifndef MINOS_SIMPROTO_DDP_CORE_HH
#define MINOS_SIMPROTO_DDP_CORE_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "check/predicates.hh"
#include "kv/store.hh"
#include "net/message.hh"
#include "nvm/durable_state.hh"
#include "obs/recorder.hh"
#include "sim/condition.hh"
#include "sim/network.hh"
#include "simproto/cluster.hh"
#include "simproto/counters.hh"
#include "simproto/models.hh"
#include "simproto/replica_store.hh"

namespace minos::simproto {

/** The coordinators' ACK count, shared with the auditors' ledger. */
using check::AckTally;

/** Coordinator bookkeeping of one write, common to both engines. */
struct WriteTxn : AckTally
{
    Tick tFirstSend = 0;  ///< the INVs left the coordinator's host
    Tick tGateAck = 0;    ///< arrival of the last gating ACK
    Tick handleNsSum = 0; ///< follower handling time of the timed ACKs
    int handleCnt = 0;
    /** The coordinator's own persist of the update is done (MINOS-O:
     *  its dFIFO enqueue, or its launch for the weak models). */
    bool localPersisted = false;

    void
    addHandle(Tick handle_ns)
    {
        handleNsSum += handle_ns;
        ++handleCnt;
    }

    /**
     * Communication share of a write of @p latency (paper §IV): the
     * INV-to-gating-ACK window minus the mean follower handling time,
     * clamped to [0, latency]; zero without a timed ACK.
     */
    double
    commNs(Tick latency) const
    {
        if (handleCnt == 0 || tGateAck <= tFirstSend)
            return 0;
        double comm = static_cast<double>(tGateAck - tFirstSend) -
                      static_cast<double>(handleNsSum) / handleCnt;
        return std::clamp(comm, 0.0, static_cast<double>(latency));
    }
};

/** Replica state and Table I primitives of one simulated node. */
class DdpCore
{
  public:
    DdpCore(const DdpCore &) = delete;
    DdpCore &operator=(const DdpCore &) = delete;

    kv::NodeId id() const { return id_; }

    /** Local client-read: stalls only while the RDLock is taken. */
    sim::Task<OpStats> clientRead(kv::Key key);

    /** Deliver a message into the receive queue of the node's protocol
     *  processor: the host for MINOS-B, the SmartNIC for MINOS-O. */
    void deliver(net::Message msg) { rx_.send(std::move(msg)); }

    /** @{ Introspection for tests and invariant checks. */
    const kv::Record &record(kv::Key key) const { return store_.at(key); }
    /** The node's durable state; log().size() counts its persists, as
     *  the length of a raw NVM log would. */
    const nvm::DurableState &log() const { return store_.durable(); }
    /** Protocol activity counters; persists is the durable state's
     *  count. */
    NodeCounters
    counters() const
    {
        NodeCounters c = counters_;
        c.persists = log().size();
        return c;
    }
    /** Scopes with scoped updates still persisting on this node. */
    std::size_t scopesPersisting() const
    {
        return scopeUnpersisted_.size();
    }
    /** @} */

    /** Durable database: what replaying every persist of this node, in
     *  order, gives. */
    nvm::DurableDb durableDb() const { return store_.durableDb(); }

  protected:
    DdpCore(sim::Simulator &sim, const ClusterConfig &cfg,
            PersistModel model, kv::NodeId id);

    /** Start the receive loop of the Engine's protocol processor: each
     *  message delivered pays @p dispatch_ns on @p cores, then goes to
     *  the Engine's handler of its family, in a process of its own. */
    template <typename Engine>
    void
    startDispatcher(sim::CorePool &cores, Tick dispatch_ns)
    {
        rxCores_ = &cores;
        rxDispatchNs_ = dispatch_ns;
        sim_.spawn(dispatcher<Engine>());
    }

    /** Lay one flight-recorder event at the current simulated time. */
    void
    traceEvent(obs::Category cat, obs::EventKind kind, std::int64_t a0,
               std::int64_t a1, std::uint16_t aux = 0) const
    {
        if (cfg_.trace)
            cfg_.trace->record(sim_.now(), cat, kind, id_, a0, a1, aux);
    }

    /**
     * Lay the AckSent or AckReceived (@p kind) record of an ACK of
     * @p type about @p m's transaction (net::txnOf), sent by @p from.
     */
    void
    traceAck(obs::EventKind kind, const net::Message &m,
             net::MsgType type, kv::NodeId from) const
    {
        const kv::WriteId txn = net::txnOf(m);
        traceEvent(obs::Category::Protocol, kind,
                   static_cast<std::int64_t>(txn.key),
                   static_cast<std::int64_t>(txn.ts),
                   obs::ackAux(type, from));
    }

    /**
     * Count an INV or write cut short as obsolete in @p counter
     * (`invsObsolete` for a follower's INV, `writesObsoleteCut` for a
     * coordinator's own write) and lay its InvObsolete record.
     */
    void
    countObsolete(std::uint64_t NodeCounters::*counter, kv::Key key,
                  const kv::Timestamp &ts)
    {
        ++(counters_.*counter);
        traceEvent(obs::Category::Protocol, obs::EventKind::InvObsolete,
                   static_cast<std::int64_t>(key),
                   static_cast<std::int64_t>(ts.pack()));
    }

    /** Finish a client op begun at @p t0 and lay its ClientOpEnd
     *  record; a write passes its @p txn for the comm/comp split. */
    OpStats
    finishOp(OpStats st, Tick t0, obs::OpType type, std::int64_t a0,
             std::int64_t a1, const WriteTxn *txn = nullptr) const
    {
        st.latencyNs = sim_.now() - t0;
        if (txn)
            st.commNs = txn->commNs(st.latencyNs);
        st.compNs = static_cast<double>(st.latencyNs) - st.commNs;
        traceEvent(obs::Category::Protocol, obs::EventKind::ClientOpEnd,
                   a0, a1, obs::opAux(type, st.obsolete));
        return st;
    }

    /**
     * Count the ACK @p ack in its transaction's tally, found in
     * @p pending by net::txnOf. Its AckReceived record comes first, so
     * the auditors see a stray ACK (its transaction retired) too.
     * Returns the transaction, or none for a stray ACK.
     */
    template <typename Txns>
    auto
    tallyAck(Txns &pending, const net::Message &ack)
    {
        traceAck(obs::EventKind::AckReceived, ack, ack.type, ack.src);
        auto txn = pending.find(net::txnOf(ack));
        if (txn && txn->add(ack.type) == AckTally::notAck)
            MINOS_PANIC("unexpected ACK type ", net::msgTypeName(ack.type));
        return txn;
    }

    /** The client-write prologue, after the engine's clientReqNs compute:
     *  count the write, draw its TS_WR from @p rec and lay its
     *  ClientOpBegin record. */
    kv::Timestamp
    beginWrite(kv::Key key, const kv::Record &rec)
    {
        ++counters_.writesCoordinated;
        const kv::Timestamp ts = store_.makeWriteTs(key, rec, id_);
        traceEvent(obs::Category::Protocol, obs::EventKind::ClientOpBegin,
                   static_cast<std::int64_t>(key),
                   static_cast<std::int64_t>(ts.pack()),
                   obs::opAux(obs::OpType::Write, false));
        return ts;
    }

    /**
     * Cut the client-write (@p key, @p ts) begun at @p t0, found obsolete
     * under the newer write @p observed (Fig. 2 lines 14-16, 20-21):
     * count and trace it, spin as handleObsolete() does, release the
     * RDLock if a stale snatch left it ours, and answer the client.
     */
    sim::Task<OpStats> cutObsoleteWrite(Tick t0, kv::Record &rec,
                                        kv::Key key, kv::Timestamp ts,
                                        kv::Timestamp observed);

    /** The [PERSIST]sc prologue: lay its ClientOpBegin record and pay
     *  the client request. */
    sim::Task<void> beginPersistScope(net::ScopeId scope);

    /** Snatch RDLock: take it unless a younger write holds it. */
    void
    snatchRdLock(kv::Record &rec, const kv::Timestamp &ts)
    {
        // (i) free -> grab; (ii) held by an older write -> snatch;
        // (iii) held by a younger write -> continue without it.
        if (rec.rdLockOwner < ts) {
            rec.rdLockOwner = ts;
            ++counters_.rdLockSnatches;
        }
    }

    /** Release RDLock if @p ts is still the owner. */
    void
    releaseRdLockIfOwner(kv::Record &rec, kv::Key key,
                         const kv::Timestamp &ts)
    {
        if (rec.rdLockOwner == ts) {
            rec.rdLockOwner = kv::Timestamp::none();
            traceEvent(obs::Category::Lock, obs::EventKind::RdLockReleased,
                       static_cast<std::int64_t>(key),
                       static_cast<std::int64_t>(ts.pack()));
            progress_.notifyAll();
        }
    }

    /** @{ Raise glb_volatileTS / glb_durableTS (monotonic max). */
    void
    raiseGlbVolatile(kv::Record &rec, kv::Key key, const kv::Timestamp &ts)
    {
        raiseGlb(rec.glbVolatileTs, key, ts, 0);
    }

    void
    raiseGlbDurable(kv::Record &rec, kv::Key key, const kv::Timestamp &ts)
    {
        raiseGlb(rec.glbDurableTs, key, ts, 1);
    }
    /** @} */

    /** Raise the glb fields a VAL of @p val's flavor validates
     *  (valEffect). */
    void
    raiseGlbForVal(kv::Record &rec, const net::Message &val)
    {
        const ValEffect fx = valEffect(val.type);
        if (fx.raisesGlbVolatile)
            raiseGlbVolatile(rec, val.key, val.tsWr);
        if (fx.raisesGlbDurable)
            raiseGlbDurable(rec, val.key, val.tsWr);
    }

    /** The coordinator's persistency-gate threshold (one short under
     *  the dropOnePersistAck test mutation). */
    int
    persistNeeded() const
    {
        return cfg_.mutations.dropOnePersistAck ? cfg_.followers() - 1
                                                : cfg_.followers();
    }

    /** Table I 2b/2c: every consistency ACK of @p t is in. */
    bool
    consistencyGate(const AckTally &t) const
    {
        return check::consistencyAcksComplete(model_, t, cfg_.followers());
    }

    /** Table I 3b: every persistency ACK of @p t is in. */
    bool
    persistencyGate(const AckTally &t) const
    {
        return check::persistencyAcksComplete(model_, t, persistNeeded());
    }

    /** Coordinator gate @p g holds over the ACKs @p t, with the local
     *  persist done or not (@p localPersisted). */
    bool
    gateHolds(const CoordinatorGate &g, const AckTally &t,
              bool localPersisted) const
    {
        return (!g.acksC || consistencyGate(t)) &&
               (!g.acksP || persistencyGate(t)) &&
               (!g.localPersist || localPersisted);
    }

    /** Coordinator gate @p g holds over @p txn. */
    bool
    gateHolds(const CoordinatorGate &g, const WriteTxn &txn) const
    {
        return gateHolds(g, txn, txn.localPersisted);
    }

    /** Run coordinator step @p s if it is a glb raise or the RDLock
     *  release; every other step is the engine's own. */
    void
    runCoordinatorStep(CoordinatorStep s, kv::Record &rec, kv::Key key,
                       const kv::Timestamp &ts)
    {
        if (s == CoordinatorStep::RaiseGlbVolatile)
            raiseGlbVolatile(rec, key, ts);
        else if (s == CoordinatorStep::RaiseGlbDurable)
            raiseGlbDurable(rec, key, ts);
        else if (s == CoordinatorStep::ReleaseRdLock)
            releaseRdLockIfOwner(rec, key, ts);
    }

    /** @{ Build a message this node sends. Every send is counted here,
     *  once per destination: the INV and VAL fan-outs once per follower,
     *  an ACK once. makeInv also lays the InvFanout (and, for
     *  <Lin,Scope>, ScopeMark) records, makeVal the ValSent record. */
    net::Message makeInv(kv::Key key, kv::Value value, kv::Timestamp ts,
                         net::ScopeId scope);
    net::Message makeVal(net::MsgType type, kv::Key key, kv::Timestamp ts,
                         net::ScopeId scope);
    net::Message makeAck(const net::Message &req, net::MsgType type,
                         Tick handle_ns);
    /** @} */

    /** Persist an update of @p scope in the background: await the
     *  engine's @p persist(), counted among the scope's unpersisted
     *  updates (<Lin,Scope>, for [PERSIST]sc) until it completes, then
     *  run @p done(). */
    template <typename Persist, typename Done>
    void
    persistInBackground(net::ScopeId scope, Persist persist, Done done)
    {
        if (isScopeModel(model_)) {
            if (const auto it = findScope(scope);
                it != scopeUnpersisted_.end())
                ++it->second;
            else
                scopeUnpersisted_.emplace_back(scope, 1);
        }
        sim_.spawn(backgroundPersist(scope, std::move(persist),
                                     std::move(done)));
    }

    /** Await every update of @p scope being persisted locally. */
    auto
    scopeFlushed(net::ScopeId scope)
    {
        return progress_.until([this, scope] {
            return findScope(scope) == scopeUnpersisted_.end();
        });
    }

    /**
     * Follower side of an INV found obsolete (Fig. 2 lines 27-30,
     * Fig. 3): count and trace the cut, spin as the model requires on
     * the newer write @p observed, then acknowledge as if the write had
     * been performed. @p respond(type, handle_ns) sends one ACK and
     * returns an awaitable.
     */
    template <typename Respond>
    sim::Task<void>
    ackObsoleteInv(const net::Message &inv, Tick t_handle0,
                   kv::Timestamp observed, Respond respond)
    {
        countObsolete(&NodeCounters::invsObsolete, inv.key, inv.tsWr);
        return walkObsolete(inv.key, observed,
                            [this, t_handle0, respond](net::MsgType type) {
                                return respond(type, sim_.now() - t_handle0);
                            });
    }

    /**
     * Walk the obsolete-INV steps on the newer write @p observed: each
     * spin waits on the record of @p key, each ACK step calls
     * @p ack(type), which returns an awaitable. Fig. 2's follower
     * (ackObsoleteInv) and coordinator (cutObsoleteWrite, whose
     * handleObsolete() is these spins without the ACKs) share it.
     */
    template <typename Ack>
    sim::Task<void>
    walkObsolete(kv::Key key, kv::Timestamp observed, Ack ack)
    {
        const kv::Record &rec = store_.at(key);
        for (FollowerStep s : obsoleteSteps_) {
            if (s == FollowerStep::AwaitGlbVolatile)
                co_await progress_.until(
                    [&] { return rec.glbVolatileTs >= observed; });
            else if (s == FollowerStep::AwaitGlbDurable)
                co_await progress_.until(
                    [&] { return rec.glbDurableTs >= observed; });
            else
                co_await ack(ackOf(model_, s));
        }
    }

    sim::Simulator &sim_;
    const ClusterConfig &cfg_;
    const PersistModel model_;
    const kv::NodeId id_;

    ReplicaStore store_;
    sim::CorePool hostCores_;
    sim::Condition progress_;
    NodeCounters counters_;
    /** The protocol processor's receive queue (deliver()). */
    sim::Mailbox<net::Message> rx_;

    /** Follower steps after applying an INV, per model and mutation. */
    const FollowerSchedule appliedSteps_;
    /** Follower steps for an obsolete INV, per model. */
    const FollowerSchedule obsoleteSteps_;
    /** Coordinator steps after the INV fan-out, per model and mutation. */
    const CoordinatorSchedule coordinatorSteps_;
    /** The gate of the client's answer (the Return step). */
    const CoordinatorGate returnGate_;

    /** Unpersisted scoped writes on this node, per scope; a scope with
     *  none has no entry. Few scopes persist at once, so a flat list
     *  serves, and dropping and re-adding a scope allocates nothing. */
    std::vector<std::pair<net::ScopeId, int>> scopeUnpersisted_;

  private:
    /** The cores and per-message cost of the receive loop. */
    sim::CorePool *rxCores_ = nullptr;
    Tick rxDispatchNs_ = 0;

    template <typename Engine>
    sim::Process
    dispatcher()
    {
        for (;;) {
            net::Message m = co_await rx_.recv();
            sim_.spawn(handle<Engine>(std::move(m)));
        }
    }

    template <typename Engine>
    sim::Process
    handle(net::Message msg)
    {
        // Handling time starts when the message sits in the receive
        // queue (paper §IV's communication/computation boundary).
        const Tick t_rx = sim_.now();
        co_await rxCores_->compute(rxDispatchNs_);
        auto &engine = static_cast<Engine &>(*this);
        switch (net::familyOf(msg.type)) {
          case net::MsgFamily::Inv:
            co_await engine.onInv(msg, t_rx);
            break;
          case net::MsgFamily::Ack:
            ++counters_.acksReceived;
            co_await engine.onAck(msg, t_rx);
            break;
          case net::MsgFamily::Val:
            ++counters_.valsReceived;
            co_await engine.onVal(msg);
            break;
          case net::MsgFamily::PersistSc:
            co_await engine.onPersistSc(msg, t_rx);
            break;
        }
    }

    template <typename Persist, typename Done>
    sim::Process
    backgroundPersist(net::ScopeId scope, Persist persist, Done done)
    {
        co_await persist();
        scopedPersistDone(scope);
        done();
    }

    /** One update of @p scope finished persisting (<Lin,Scope>). Kept
     *  out of backgroundPersist's body: that body's locals live in its
     *  coroutine frame, which every backed-up persist holds, and this
     *  iterator once moved the frame up a FramePool size class. */
    void
    scopedPersistDone(net::ScopeId scope)
    {
        if (!isScopeModel(model_))
            return;
        const auto it = findScope(scope);
        if (--it->second == 0) {
            *it = scopeUnpersisted_.back();
            scopeUnpersisted_.pop_back();
            progress_.notifyAll();
        }
    }

    std::vector<std::pair<net::ScopeId, int>>::iterator
    findScope(net::ScopeId scope)
    {
        return std::find_if(
            scopeUnpersisted_.begin(), scopeUnpersisted_.end(),
            [scope](const auto &e) { return e.first == scope; });
    }

    void
    raiseGlb(kv::Timestamp &glb, kv::Key key, const kv::Timestamp &ts,
             std::uint16_t durable)
    {
        if (glb < ts) {
            glb = ts;
            traceEvent(obs::Category::Protocol, obs::EventKind::GlbRaised,
                       static_cast<std::int64_t>(key),
                       static_cast<std::int64_t>(ts.pack()), durable);
            progress_.notifyAll();
        }
    }
};

} // namespace minos::simproto

#endif // MINOS_SIMPROTO_DDP_CORE_HH
