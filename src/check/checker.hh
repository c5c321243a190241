/**
 * @file
 * Explicit-state model checker for the MINOS DDP protocols (paper §VI).
 *
 * The paper verifies MINOS-B/-O with TLA+/TLC; TLC is itself an
 * explicit-state enumerator, so this module re-creates the verification
 * natively: an abstract small-step model of the protocol (bounded
 * writes, bounded nodes, one record, adversarially reordered message
 * delivery) is explored exhaustively with BFS, and every reached state
 * is checked against the Table I conditions:
 *
 *  1. Concurrency: no deadlock (every non-final state has an enabled
 *     action); the action system is monotonic, so livelock-free by
 *     construction (the state graph is a DAG).
 *  2. Consistency:
 *     (a) all replicas read-unlocked => volatileTS and glb_volatileTS
 *         agree across nodes;
 *     (b) all consistency ACKs received for a write => every replica's
 *         volatileTS is at least the write's TS_WR;
 *     (c) not all consistency ACKs received => no replica's
 *         glb_volatileTS has reached the write's TS_WR.
 *  3. Persistency:
 *     (a) any replica's glb_durableTS at TS_WR => the write is durable
 *         (logged) on every replica;
 *     (b) not all persistency ACKs received => no replica's
 *         glb_durableTS has reached the write's TS_WR.
 *  4. Type checks: only the model's legal message kinds ever appear;
 *     record metadata and ACK-bookkeeping stay in range.
 *
 * Like TLC, the search remembers each reached state only by a 64-bit
 * fingerprint, kept in a quotient table, and holds states, packed,
 * only for the rest of the BFS level being expanded and the next one. Two distinct states with one
 * fingerprint would be merged; fingerprintCollisionBound() bounds the
 * chance.
 *
 * The follower runs the engines' step tables (simproto/models.hh).
 * Deliberate protocol mutations (skip the ConsistencySpin, release the
 * RDLock early, ACK durability before the persist) are available to
 * validate that the checker actually catches bugs.
 */

#ifndef MINOS_CHECK_CHECKER_HH
#define MINOS_CHECK_CHECKER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "simproto/models.hh"

namespace minos::check {

using simproto::PersistModel;

/** Bounds of the abstract model. */
inline constexpr int maxNodes = 3;
inline constexpr int maxWrites = 3;

/** Checker configuration. */
struct CheckConfig
{
    int numNodes = 3;
    /** Under <Lin, Scope> the writes share one scope, and its
     *  [PERSIST]sc transaction runs after all of them complete. */
    PersistModel model = PersistModel::Synch;
    /** Coordinator of each modeled write (size = number of writes). */
    std::vector<int> writers = {0, 1};

    /** @{ Deliberate bugs used to validate the checker itself. */
    bool bugSkipConsistencySpin = false;
    bool bugReleaseRdLockEarly = false;
    /** Follower ACKs durability before persisting (appliedSchedule's
     *  ackBeforePersist); Event and Scope have no such ACK to move. */
    bool bugAckBeforePersist = false;
    /** @} */

    /**
     * State budget. A run that reaches a new state with this many
     * already discovered stops and reports CheckResult::inconclusive.
     */
    std::size_t maxStates = 4'000'000;

    /**
     * Record each state's predecessor index and action so violations
     * come with a counterexample action trace (TLC-style). Costs 12 B
     * per state, on top of the fingerprint table's share (a slot of
     * 67 - q bits at 2^q slots, at 3/8 to 3/4 load: 7.7-15.3 B at
     * 2^21) and the 32-byte packed states of at most two BFS levels;
     * off by default.
     */
    bool recordTraces = false;
};

/** One invariant violation (or deadlock) found. */
struct Violation
{
    std::string invariant;
    std::string detail;
    /** Action sequence from the initial state (when recordTraces). */
    std::vector<std::string> trace;
};

/** Checker outcome. */
struct CheckResult
{
    std::size_t statesExplored = 0;
    std::size_t transitions = 0;
    std::size_t finalStates = 0;
    std::vector<Violation> violations;
    /**
     * The state budget (CheckConfig::maxStates) ran out before the
     * space was exhausted: the counts cover only the part explored,
     * and the absence of violations proves nothing.
     */
    bool inconclusive = false;

    bool ok() const { return violations.empty() && !inconclusive; }
};

/**
 * Explore the protocol model exhaustively, or until cfg.maxStates states
 * are stored (CheckResult::inconclusive), and check Table I.
 */
CheckResult checkModel(const CheckConfig &cfg);

/**
 * TLC's bound on the chance that a run which reached @p states distinct
 * fingerprints merged two distinct states: n(n-1)/2 pairs, each equal
 * with probability 2^-64 under a uniform hash.
 */
double fingerprintCollisionBound(std::size_t states);

} // namespace minos::check

#endif // MINOS_CHECK_CHECKER_HH
