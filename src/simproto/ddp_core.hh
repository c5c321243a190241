/**
 * @file
 * The record-level DDP protocol core shared by MINOS-B
 * (simproto/node_b) and MINOS-O (snic/node_o).
 *
 * MINOS-O does not change the DDP algorithm of Figs. 2-3: it runs the
 * same Table I state machine on a different processor (paper §V). So
 * the core owns the replica state both engines keep — the record store,
 * the NVM log, the host cores, the progress Condition, the counters,
 * the per-scope unpersisted counts and the per-record TS_WR guard — and
 * defines each primitive over it once: RDLock snatch/release, the glb
 * raises, TS_WR generation, handleObsolete, the local client read, the
 * follower's per-model ACK schedules and the coordinator's ACK tally.
 * The engines keep only what really differs: MINOS-B its WRLock, host
 * persist and coordinator tails; MINOS-O its SNIC engine, vFIFO/dFIFO,
 * PCIe host ACK mirror and coordinator tails.
 *
 * Gate arithmetic comes from check/predicates.hh, the predicates the
 * model checker and the auditors use too.
 */

#ifndef MINOS_SIMPROTO_DDP_CORE_HH
#define MINOS_SIMPROTO_DDP_CORE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>

#include "check/predicates.hh"
#include "kv/store.hh"
#include "net/message.hh"
#include "nvm/log.hh"
#include "obs/recorder.hh"
#include "sim/condition.hh"
#include "sim/network.hh"
#include "simproto/cluster.hh"
#include "simproto/counters.hh"
#include "simproto/models.hh"
#include "simproto/trace_map.hh"

namespace minos::simproto {

/** ACKs one write or [PERSIST]sc has gathered, by family. */
struct AckTally
{
    int acks = 0;  ///< combined ACKs (Synch)
    int acksC = 0; ///< consistency ACKs (ACK_C, ACK_C_SC)
    int acksP = 0; ///< persistency ACKs (ACK_P, ACK_P_SC)

    /** Count one ACK of @p type; false if @p type is not an ACK. */
    bool
    add(net::MsgType type)
    {
        switch (type) {
          case net::MsgType::ACK: ++acks; return true;
          case net::MsgType::ACK_C:
          case net::MsgType::ACK_C_SC: ++acksC; return true;
          case net::MsgType::ACK_P:
          case net::MsgType::ACK_P_SC: ++acksP; return true;
          default: return false;
        }
    }
};

/** Coordinator bookkeeping of one write, common to both engines. */
struct WriteTxn : AckTally
{
    Tick tFirstSend = 0;  ///< the INVs left the coordinator's host
    Tick tGateAck = 0;    ///< arrival of the last gating ACK
    Tick handleNsSum = 0; ///< follower handling time of the timed ACKs
    int handleCnt = 0;

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

/** One step of a follower's answer to an INV (Figs. 2-3). */
enum class FollowerStep : std::uint8_t
{
    AwaitGlbVolatile, ///< ConsistencySpin on the newer write
    AwaitGlbDurable,  ///< PersistencySpin on the newer write
    AckC,         ///< the model's consistency ACK (combined for Synch)
    AckP,         ///< ACK_P
    Persist,      ///< make the update durable, awaited
    PersistLater, ///< make the update durable in the background
};

/** A follower's steps for one INV, in order. */
struct FollowerSchedule
{
    std::array<FollowerStep, 4> steps{};
    std::uint8_t size = 0;

    void push(FollowerStep s) { steps[size++] = s; }
    const FollowerStep *begin() const { return steps.data(); }
    const FollowerStep *end() const { return steps.data() + size; }
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

    /** @{ Introspection for tests and invariant checks. */
    const kv::Record &record(kv::Key key) const { return store_.at(key); }
    const nvm::DurableLog &log() const { return log_; }
    /** Protocol activity counters. */
    const NodeCounters &counters() const { return counters_; }
    /** @} */

    /** Durable database obtained by replaying this node's NVM log. */
    nvm::DurableDb durableDb() const;

  protected:
    DdpCore(sim::Simulator &sim, const ClusterConfig &cfg,
            PersistModel model, kv::NodeId id);

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
     * @p type about @p m's write (or scope, for ACK_P_SC), sent by
     * @p from.
     */
    void
    traceAck(obs::EventKind kind, const net::Message &m,
             net::MsgType type, kv::NodeId from) const
    {
        std::uint16_t aux = obs::ackAux(ackFlavorOf(type), from);
        if (type == net::MsgType::ACK_P_SC)
            traceEvent(obs::Category::Protocol, kind,
                       static_cast<std::int64_t>(m.scope), 0, aux);
        else
            traceEvent(obs::Category::Protocol, kind,
                       static_cast<std::int64_t>(m.key),
                       static_cast<std::int64_t>(m.tsWr.pack()), aux);
    }

    /** Lay the InvObsolete record of an INV or write cut short. */
    void
    traceObsolete(kv::Key key, const kv::Timestamp &ts) const
    {
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

    /** Raise the glb fields a VAL of @p val's flavor validates: VAL
     *  both, VAL_C/VAL_C_SC glb_volatileTS, VAL_P glb_durableTS. */
    void
    raiseGlbForVal(kv::Record &rec, const net::Message &val)
    {
        using net::MsgType;
        if (val.type == MsgType::VAL || val.type == MsgType::VAL_C ||
            val.type == MsgType::VAL_C_SC)
            raiseGlbVolatile(rec, val.key, val.tsWr);
        if (val.type == MsgType::VAL || val.type == MsgType::VAL_P)
            raiseGlbDurable(rec, val.key, val.tsWr);
    }

    /**
     * Generate a unique TS_WR for a new client-write on @p key. It is
     * newer than the local copy, so a write cannot be obsolete before
     * its first suspension: the engines check only after the snatch
     * (Fig. 2 line 5's early check can never fire).
     */
    kv::Timestamp
    makeWriteTs(kv::Key key, const kv::Record &rec)
    {
        // Paper: version = coordinator's volatileTS version + 1.
        // Concurrent local writers would collide on that rule alone, so
        // a per-record monotonic guard keeps locally-issued TS_WR
        // unique; cross-node ties are broken by node_id as usual.
        auto &next = nextLocalVersion_[key];
        std::int64_t ver = std::max(rec.volatileTs.version + 1, next);
        next = ver + 1;
        return kv::Timestamp{ver, id_};
    }

    /**
     * handleObsolete(): ConsistencySpin (wait until glb_volatileTS
     * reaches the newer write) then, for Synch/Strict/REnf,
     * PersistencySpin (glb_durableTS).
     */
    sim::Task<void> handleObsolete(kv::Key key, kv::Timestamp observed);

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
        return check::consistencyAcksComplete(model_, t.acks, t.acksC,
                                              cfg_.followers());
    }

    /** Table I 3b: every persistency ACK of @p t is in. */
    bool
    persistencyGate(const AckTally &t) const
    {
        return check::persistencyAcksComplete(model_, t.acks, t.acksP,
                                              persistNeeded());
    }

    /** The ACK type a follower step sends. */
    net::MsgType
    ackOf(FollowerStep s) const
    {
        return s == FollowerStep::AckP ? net::MsgType::ACK_P
                                       : ackCType(model_);
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

    /** @{ One scoped update starts / finishes persisting (<Lin,Scope>
     *  tracks them per scope for [PERSIST]sc). */
    void
    beginScopedPersist(net::ScopeId scope)
    {
        if (isScopeModel(model_))
            ++scopeUnpersisted_[scope];
    }

    void
    endScopedPersist(net::ScopeId scope)
    {
        if (isScopeModel(model_) && --scopeUnpersisted_[scope] == 0)
            progress_.notifyAll();
    }
    /** @} */

    /** Await every update of @p scope being persisted locally. */
    auto
    scopeFlushed(net::ScopeId scope)
    {
        return progress_.until(
            [this, scope] { return scopeUnpersisted_[scope] == 0; });
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
        ++counters_.invsObsolete;
        traceObsolete(inv.key, inv.tsWr);
        const kv::Record &rec = store_.at(inv.key);
        for (FollowerStep s : obsoleteSteps_) {
            if (s == FollowerStep::AwaitGlbVolatile)
                co_await progress_.until(
                    [&] { return rec.glbVolatileTs >= observed; });
            else if (s == FollowerStep::AwaitGlbDurable)
                co_await progress_.until(
                    [&] { return rec.glbDurableTs >= observed; });
            else
                co_await respond(ackOf(s), sim_.now() - t_handle0);
        }
    }

    sim::Simulator &sim_;
    const ClusterConfig &cfg_;
    const PersistModel model_;
    const kv::NodeId id_;

    kv::SimStore store_;
    nvm::DurableLog log_;
    sim::CorePool hostCores_;
    sim::Condition progress_;
    NodeCounters counters_;

    /** Follower steps after applying an INV, per model and mutation. */
    const FollowerSchedule appliedSteps_;
    /** Follower steps for an obsolete INV, per model. */
    const FollowerSchedule obsoleteSteps_;

    /** Unpersisted scoped writes on this node, per scope. */
    std::unordered_map<net::ScopeId, int> scopeUnpersisted_;
    /** Per-record guard that keeps locally-issued TS_WR unique. Sparse:
     *  only keys this node coordinated get an entry. */
    std::unordered_map<kv::Key, std::int64_t> nextLocalVersion_;

  private:
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
