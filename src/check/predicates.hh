/**
 * @file
 * Model-aware protocol gate predicates shared by the offline model
 * checker (check/checker.cc, its read-enforced durability invariant),
 * the run-time auditors (obs/audit.cc) and the engines' gates.
 *
 * They all ask the same Table I questions — "has this write
 * gathered the ACKs its model requires before X?" — so the ACK count
 * and its arithmetic live here, header-only (no link dependency;
 * everything derives from the constexpr helpers in simproto/models.hh).
 * The engines' coordinators (simproto/ddp_core.hh) and the audit ledger
 * (obs/audit.hh) count ACKs with the one AckTally below.
 *
 * Convention: @p needed is the follower count (numNodes - 1).
 */

#ifndef MINOS_CHECK_PREDICATES_HH
#define MINOS_CHECK_PREDICATES_HH

#include "net/message.hh"
#include "simproto/models.hh"

namespace minos::check {

/** ACKs one write or [PERSIST]sc has gathered, by family. */
struct AckTally
{
    /** The ACK families, as add() reports them. */
    enum Family : int
    {
        notAck = -1,
        combined,    ///< ACK (Synch: consistency + persistency in one)
        consistency, ///< ACK_C, ACK_C_SC
        persistency, ///< ACK_P, ACK_P_SC
        numFamilies,
    };

    int acks = 0;  ///< combined ACKs
    int acksC = 0; ///< consistency ACKs
    int acksP = 0; ///< persistency ACKs

    constexpr bool operator==(const AckTally &) const = default;

    /** Count one ACK of @p type and return its family; notAck, and
     *  nothing counted, if @p type is not an ACK. */
    constexpr Family
    add(net::MsgType type)
    {
        switch (type) {
          case net::MsgType::ACK: ++acks; return combined;
          case net::MsgType::ACK_C:
          case net::MsgType::ACK_C_SC: ++acksC; return consistency;
          case net::MsgType::ACK_P:
          case net::MsgType::ACK_P_SC: ++acksP; return persistency;
          default: return notAck;
        }
    }
};

/** The ACKs of @p t that gate consistency under @p m: the combined
 *  ACKs for Synch, the ACK_C family otherwise. */
constexpr int
consistencyAcks(simproto::PersistModel m, const AckTally &t)
{
    return simproto::usesSplitAcks(m) ? t.acksC : t.acks;
}

/**
 * Table I cond. 2b/2c gate: all consistency ACKs for the write are in.
 * Before this holds, glb_volatileTS must not advance past the write
 * and no consistency validation (VAL/VAL_C/VAL_C_SC) may be sent.
 */
constexpr bool
consistencyAcksComplete(simproto::PersistModel m, const AckTally &t,
                        int needed)
{
    return consistencyAcks(m, t) >= needed;
}

/**
 * Table I cond. 3b gate: all persistency ACKs for the write are in
 * (the combined ACKs for Synch, the ACK_Ps otherwise). Before this
 * holds, glb_durableTS must not advance past the write and no
 * persistency validation (VAL of Synch/REnf, VAL_P) may be sent. Only
 * meaningful for models that track persistency per write.
 */
constexpr bool
persistencyAcksComplete(simproto::PersistModel m, const AckTally &t,
                        int needed)
{
    return (m == simproto::PersistModel::Synch ? t.acks : t.acksP) >=
           needed;
}

/**
 * True when the model promises that any readable (validated) record is
 * already durable on every replica: Synch validates with persistency
 * in one step, and REnf releases locks only after the write is durable
 * everywhere (its distinguishing read-enforcement). Strict does not —
 * it only stalls the *writer*, so reads may observe a not-yet-durable
 * record; Event/Scope decouple persistency entirely.
 */
constexpr bool
readImpliesDurableEverywhere(simproto::PersistModel m)
{
    return m == simproto::PersistModel::Synch ||
           m == simproto::PersistModel::REnf;
}

} // namespace minos::check

#endif // MINOS_CHECK_PREDICATES_HH
