/**
 * @file
 * The DDP model taxonomy: Linearizable consistency combined with one of
 * five persistency models (paper §II-A).
 *
 * The helpers encode the per-model protocol decisions of Figs. 2-3:
 * which ACK/VAL message types are exchanged, whether the NVM persist is
 * on the write critical path, whether obsolete-write handling requires
 * the PersistencySpin, a follower's steps for an applied and for an
 * obsolete INV, which glb fields a VAL raises, and the coordinator's
 * steps after the INV fan-out with the gate of each. Every engine
 * (MINOS-B, MINOS-O and the threaded runtime) takes these decisions,
 * its message flavors and its write identity from here, and keeps only
 * the mechanisms that carry them out. The model checker
 * (check/checker.cc) compiles the same follower and coordinator
 * schedules and VAL effects into its abstract nodes.
 */

#ifndef MINOS_SIMPROTO_MODELS_HH
#define MINOS_SIMPROTO_MODELS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "kv/record.hh"
#include "net/message.hh"

namespace minos::simproto {

/** Persistency model combined with Linearizable consistency. */
enum class PersistModel : std::uint8_t
{
    Synch,  ///< persist with the volatile update, single ACK/VAL
    Strict, ///< split ACK_C/ACK_P and VAL_C/VAL_P, persist before return
    REnf,   ///< read-enforced: persisted by the time any replica is read
    Event,  ///< eventual: persist in the background, no persist messages
    Scope,  ///< eventual within a scope; [PERSIST]sc flushes the scope
};

/** All models, in the paper's presentation order. */
inline constexpr std::array<PersistModel, 5> allModels = {
    PersistModel::Synch, PersistModel::Strict, PersistModel::REnf,
    PersistModel::Event, PersistModel::Scope,
};

/** "<Lin, Synch>"-style display name. */
constexpr std::string_view
modelName(PersistModel m)
{
    switch (m) {
      case PersistModel::Synch: return "<Lin,Synch>";
      case PersistModel::Strict: return "<Lin,Strict>";
      case PersistModel::REnf: return "<Lin,REnf>";
      case PersistModel::Event: return "<Lin,Event>";
      case PersistModel::Scope: return "<Lin,Scope>";
    }
    return "<?>";
}

/** Short name without the consistency prefix. */
constexpr std::string_view
shortModelName(PersistModel m)
{
    switch (m) {
      case PersistModel::Synch: return "Synch";
      case PersistModel::Strict: return "Strict";
      case PersistModel::REnf: return "REnf";
      case PersistModel::Event: return "Event";
      case PersistModel::Scope: return "Scope";
    }
    return "?";
}

/**
 * True if the model separates consistency and persistency
 * acknowledgements (ACK_C / ACK_P). Synch uses a single combined ACK.
 */
constexpr bool
usesSplitAcks(PersistModel m)
{
    return m != PersistModel::Synch;
}

/**
 * True if persistency is tracked with ACK_P/VAL_P messages at write
 * granularity. Event never tracks; Scope tracks only at [PERSIST]sc.
 */
constexpr bool
tracksPersistPerWrite(PersistModel m)
{
    return m == PersistModel::Synch || m == PersistModel::Strict ||
           m == PersistModel::REnf;
}

/** True for the <Lin, Scope> model (scoped message variants). */
constexpr bool
isScopeModel(PersistModel m)
{
    return m == PersistModel::Scope;
}

/** Per-model INV flavor. */
constexpr net::MsgType
invType(PersistModel m)
{
    return isScopeModel(m) ? net::MsgType::INV_SC : net::MsgType::INV;
}

/** Per-model gating consistency ACK (the combined ACK for Synch). */
constexpr net::MsgType
ackCType(PersistModel m)
{
    if (m == PersistModel::Synch)
        return net::MsgType::ACK;
    return isScopeModel(m) ? net::MsgType::ACK_C_SC : net::MsgType::ACK_C;
}

/** Per-model consistency VAL (the combined VAL for Synch and REnf). */
constexpr net::MsgType
valCType(PersistModel m)
{
    switch (m) {
      case PersistModel::Synch:
      case PersistModel::REnf:
        return net::MsgType::VAL;
      case PersistModel::Strict:
      case PersistModel::Event:
        return net::MsgType::VAL_C;
      case PersistModel::Scope:
        return net::MsgType::VAL_C_SC;
    }
    return net::MsgType::VAL;
}

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

/** Up to @p N steps of one node's part in a write, in order. */
template <typename Step, std::size_t N>
struct StepList
{
    std::array<Step, N> steps{};
    std::uint8_t size = 0;

    constexpr void
    push(std::initializer_list<Step> more)
    {
        for (Step s : more)
            steps[size++] = s;
    }
    constexpr const Step *begin() const { return steps.data(); }
    constexpr const Step *end() const { return steps.data() + size; }
};

/** A follower's steps for one INV. */
using FollowerSchedule = StepList<FollowerStep, 4>;

/** The ACK type a follower step sends under model @p m. */
constexpr net::MsgType
ackOf(PersistModel m, FollowerStep s)
{
    return s == FollowerStep::AckP ? net::MsgType::ACK_P : ackCType(m);
}

/**
 * Fig. 2 lines 39-40 and the Fig. 3 follower deltas: the steps after an
 * INV is applied. The two test mutations move them: @p ackBeforePersist
 * acknowledges durability before it exists, @p duplicateAck sends the
 * consistency ACK twice.
 */
constexpr FollowerSchedule
appliedSchedule(PersistModel m, bool ackBeforePersist, bool duplicateAck)
{
    using S = FollowerStep;
    FollowerSchedule s;
    // The durable acknowledgement follows the persist.
    auto durable = [&](S ack) {
        s.push({ackBeforePersist ? ack : S::Persist,
                ackBeforePersist ? S::Persist : ack});
    };
    switch (m) {
      case PersistModel::Synch:
        // Persist in the critical path, then the single combined ACK.
        durable(S::AckC);
        if (duplicateAck)
            s.push({S::AckC});
        break;
      case PersistModel::Strict:
      case PersistModel::REnf:
        // ACK_C right after the LLC update; ACK_P after the persist.
        s.push({S::AckC});
        if (duplicateAck)
            s.push({S::AckC});
        durable(S::AckP);
        break;
      case PersistModel::Event:
      case PersistModel::Scope:
        // ACK_C after the LLC update; persist in the background.
        s.push({S::AckC});
        if (duplicateAck)
            s.push({S::AckC});
        s.push({S::PersistLater});
        break;
    }
    return s;
}

/** Fig. 2 lines 27-30 and Fig. 3(ii)/(iv)/(vi)/(viii): the spins and
 *  ACKs of an obsolete INV. The VAL received later is discarded. The
 *  spins are handleObsolete(), which a coordinator whose write is cut
 *  runs too: the PersistencySpin only where persistency is tracked per
 *  write (Event and Scope accesses need not stall on persists). */
constexpr FollowerSchedule
obsoleteSchedule(PersistModel m)
{
    using S = FollowerStep;
    FollowerSchedule s;
    s.push({S::AwaitGlbVolatile});
    if (!usesSplitAcks(m)) {
        // handleObsolete(), then the combined ACK.
        s.push({S::AwaitGlbDurable, S::AckC});
        return s;
    }
    s.push({S::AckC});
    if (tracksPersistPerWrite(m))
        s.push({S::AwaitGlbDurable, S::AckP});
    return s;
}

/** What a follower does with a VAL of one flavor. */
struct ValEffect
{
    bool raisesGlbVolatile = false;
    bool raisesGlbDurable = false;
    bool releasesRdLock = false; ///< the write is validated
};

/** VAL raises both glb fields, VAL_C/VAL_C_SC glb_volatileTS and
 *  VAL_P glb_durableTS; VAL and the VAL_C flavors free the RDLock.
 *  VAL_P_SC only terminates the [PERSIST]sc at the follower. */
constexpr ValEffect
valEffect(net::MsgType type)
{
    switch (type) {
      case net::MsgType::VAL: return {true, true, true};
      case net::MsgType::VAL_C:
      case net::MsgType::VAL_C_SC: return {true, false, true};
      case net::MsgType::VAL_P: return {false, true, false};
      default: return {};
    }
}

/**
 * One step of a coordinator's write after the INV fan-out and the LLC
 * update (Fig. 2 lines 18-22, Fig. 3 steps d-f). Persist is awaited,
 * PersistLater runs in the background; AwaitAcksC waits for every
 * consistency ACK (combined for Synch), AwaitAcksP for every ACK_P;
 * SendVal sends valCType; Return answers the client.
 */
enum class CoordinatorStep : std::uint8_t
{
    Persist, PersistLater, AwaitAcksC, AwaitAcksP, RaiseGlbVolatile,
    RaiseGlbDurable, ReleaseRdLock, SendVal, SendValP, Return,
};

/** What a coordinator must have waited for before it runs a step. */
struct CoordinatorGate
{
    bool acksC = false, acksP = false;
    bool localPersist = false; ///< its own persist of the update
};

/**
 * A coordinator's steps for one write. The Await steps cut it into
 * segments: the head before the first Await, then one per Await.
 */
struct CoordinatorSchedule : StepList<CoordinatorStep, 10>
{
    static constexpr bool
    isAwait(CoordinatorStep s)
    {
        return s == CoordinatorStep::AwaitAcksC ||
               s == CoordinatorStep::AwaitAcksP;
    }

    /** The end of @p at's segment: the next Await after it, else end(). */
    constexpr const CoordinatorStep *
    segmentEnd(const CoordinatorStep *at) const
    {
        do
            ++at;
        while (at != end() && !isAwait(*at));
        return at;
    }

    /**
     * The gate of step @p at: every Await up to it, and the local
     * persist once a segment up to its own raises glb_durableTS.
     */
    constexpr CoordinatorGate
    gateOf(const CoordinatorStep *at) const
    {
        CoordinatorGate g;
        for (const CoordinatorStep *s = begin(); s != segmentEnd(at); ++s) {
            g.acksC |= s <= at && *s == CoordinatorStep::AwaitAcksC;
            g.acksP |= s <= at && *s == CoordinatorStep::AwaitAcksP;
            g.localPersist |= *s == CoordinatorStep::RaiseGlbDurable;
        }
        return g;
    }

    /** True if some step waits for the coordinator's own persist. */
    constexpr bool
    awaitsLocalPersist() const
    {
        return gateOf(end() - 1).localPersist;
    }
};

/** The VAL a coordinator send step sends under model @p m. */
constexpr net::MsgType
valOf(PersistModel m, CoordinatorStep s)
{
    return s == CoordinatorStep::SendValP ? net::MsgType::VAL_P
                                          : valCType(m);
}

/**
 * Fig. 2 lines 18-22 and the Fig. 3 coordinator deltas. The persist is
 * on the critical path only for Synch and Strict (Fig. 3: "for the rest
 * of the models, persisting the update to NVM is performed outside of
 * the critical path"). The test mutation @p releaseRdLockEarly frees the
 * RDLock first.
 *
 * Every walker keeps gateOf's rule: a segment that raises glb_durableTS
 * also waits for the coordinator's own persist. Blocking walkers await
 * each gate in line; trigger-driven ones run a segment when its gate
 * holds. Steps after Return run off the client path.
 */
constexpr CoordinatorSchedule
coordinatorSchedule(PersistModel m, bool releaseRdLockEarly)
{
    using S = CoordinatorStep;
    CoordinatorSchedule s;
    if (releaseRdLockEarly)
        s.push({S::ReleaseRdLock});
    const bool persist_inline =
        m == PersistModel::Synch || m == PersistModel::Strict;
    s.push({persist_inline ? S::Persist : S::PersistLater, S::AwaitAcksC,
            S::RaiseGlbVolatile});
    switch (m) {
      case PersistModel::Synch: // one VAL validates both
        s.push({S::RaiseGlbDurable, S::ReleaseRdLock, S::SendVal,
                S::Return});
        break;
      case PersistModel::Strict: // VAL_P strictly after VAL_C (Fig. 3(i))
        s.push({S::ReleaseRdLock, S::SendVal, S::AwaitAcksP,
                S::RaiseGlbDurable, S::SendValP, S::Return});
        break;
      case PersistModel::REnf: // the VAL once durable everywhere
        s.push({S::Return, S::AwaitAcksP, S::RaiseGlbDurable,
                S::ReleaseRdLock, S::SendVal});
        break;
      case PersistModel::Event:
      case PersistModel::Scope:
        s.push({S::ReleaseRdLock, S::SendVal, S::Return});
        break;
    }
    return s;
}

} // namespace minos::simproto

#endif // MINOS_SIMPROTO_MODELS_HH
