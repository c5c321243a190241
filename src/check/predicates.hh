/**
 * @file
 * Model-aware protocol gate predicates shared by the offline model
 * checker (check/checker.cc, its read-enforced durability invariant),
 * the run-time auditors (obs/audit.cc) and the engines' gates.
 *
 * They all ask the same Table I questions — "has this write
 * gathered the ACKs its model requires before X?" — so the ACK-count
 * arithmetic lives here, header-only (no link dependency; everything
 * derives from the constexpr helpers in simproto/models.hh).
 *
 * Conventions: @p needed is the follower count (numNodes - 1);
 * @p acks counts combined ACKs (Synch), @p acksC consistency-family
 * ACKs (ACK_C / ACK_C_SC), @p acksP persistency-family ACKs (ACK_P).
 */

#ifndef MINOS_CHECK_PREDICATES_HH
#define MINOS_CHECK_PREDICATES_HH

#include "simproto/models.hh"

namespace minos::check {

/**
 * Table I cond. 2b/2c gate: all consistency ACKs for the write are in.
 * Before this holds, glb_volatileTS must not advance past the write
 * and no consistency validation (VAL/VAL_C/VAL_C_SC) may be sent.
 */
constexpr bool
consistencyAcksComplete(simproto::PersistModel m, int acks, int acksC,
                        int needed)
{
    return (simproto::usesSplitAcks(m) ? acksC : acks) >= needed;
}

/**
 * Table I cond. 3b gate: all persistency ACKs for the write are in.
 * Before this holds, glb_durableTS must not advance past the write and
 * no persistency validation (VAL of Synch/REnf, VAL_P) may be sent.
 * Only meaningful for models that track persistency per write.
 */
constexpr bool
persistencyAcksComplete(simproto::PersistModel m, int acks, int acksP,
                        int needed)
{
    return (m == simproto::PersistModel::Synch ? acks : acksP) >=
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
