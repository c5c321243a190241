#include "checker.hh"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <limits>
#include <sstream>
#include <tuple>
#include <utility>

#include "check/fingerprint_set.hh"
#include "check/predicates.hh"
#include "check/state.hh"
#include "common/logging.hh"

namespace minos::check {

namespace {

using simproto::CoordinatorGate;
using simproto::CoordinatorSchedule;
using simproto::CoordinatorStep;
using simproto::FollowerSchedule;
using simproto::FollowerStep;
using simproto::isScopeModel;
using simproto::tracksPersistPerWrite;
using simproto::usesSplitAcks;

/** In-flight message bits, per (write, node). */
enum MsgBit : std::uint8_t
{
    BitInv = 1,
    BitAck = 2,
    BitAckC = 4,
    BitAckP = 8,
    BitVal = 16,
    BitValC = 32,
    BitValP = 64,
};

/** Coordinator program counter. */
enum CPc : std::uint8_t
{
    CInit = 0,
    CSending,
    CPersist,
    CWaitAcks,
    CWaitAcksP,
    CObsWaitC,
    CObsWaitP,
    CDone,
};

/** The in-flight bit that carries a message of @p type. */
std::uint8_t
bitOf(net::MsgType type)
{
    using net::MsgType;
    switch (type) {
      case MsgType::ACK: return BitAck;
      case MsgType::ACK_C:
      case MsgType::ACK_C_SC: return BitAckC;
      case MsgType::ACK_P: return BitAckP;
      case MsgType::VAL: return BitVal;
      case MsgType::VAL_C:
      case MsgType::VAL_C_SC: return BitValC;
      case MsgType::VAL_P: return BitValP;
      default: MINOS_PANIC("no message bit for type ", int(type));
    }
}

/** Follower program counters outside the compiled steps. */
inline constexpr std::uint8_t fpcIdle = 0;    // INV not delivered yet
inline constexpr std::uint8_t fpcDone = 0xFF; // schedule finished

/**
 * One persist or spin of a follower's schedule, with the ACKs that
 * follow it in the schedule (sent when it completes) and the next fpc.
 */
struct FollowerInstr
{
    FollowerStep step{};
    std::uint8_t acks = 0;
    std::uint8_t next = fpcDone;
    const char *action = nullptr;
};

/**
 * appliedSchedule() and obsoleteSchedule() of one configuration,
 * compiled once so the search does not walk the tables per state.
 * applied/obsolete hold only the ACKs at the head of each schedule,
 * which go out with the INV delivery, and its first fpc.
 */
struct FollowerProgram
{
    FollowerInstr applied;
    FollowerInstr obsolete;
    /** Indexed by fpc: fpcIdle, then at most one per step of the two
     *  schedules (FollowerSchedule holds four). */
    std::array<FollowerInstr, 1 + 2 * 4> instrs{};

    FollowerProgram(PersistModel model, bool ackBeforePersist)
    {
        std::uint8_t size = 1;
        auto compile = [&](FollowerInstr &head,
                           const FollowerSchedule &sched) {
            FollowerInstr *last = &head;
            for (FollowerStep step : sched) {
                if (step == FollowerStep::AckC ||
                    step == FollowerStep::AckP) {
                    last->acks |= bitOf(ackOf(model, step));
                } else {
                    last->next = size;
                    last = &instrs[size++];
                    last->step = step;
                }
            }
        };
        compile(applied, appliedSchedule(model, ackBeforePersist, false));
        compile(obsolete, obsoleteSchedule(model));
        for (FollowerInstr &in : instrs) {
            in.action =
                in.step == FollowerStep::AwaitGlbVolatile ? "FollowerObsWaitC"
                : in.step == FollowerStep::AwaitGlbDurable ? "FollowerObsWaitP"
                : in.acks ? "FollowerPersist"
                          : "FollowerBgPersist";
        }
    }
};

/** The coordinator pc that waits at Await step @p s. */
std::uint8_t
pcOf(CoordinatorStep s)
{
    return s == CoordinatorStep::AwaitAcksP ? CWaitAcksP : CWaitAcks;
}

/** One segment of the coordinator schedule: its gate, and what the
 *  atomic action that runs it does. */
struct CoordSegment
{
    CoordinatorGate gate;
    bool raiseV = false;
    bool raiseD = false;
    bool release = false;
    std::uint8_t vals = 0; ///< in-flight bits sent to every follower
    std::uint8_t next = CDone;
    const char *action = nullptr;
};

/**
 * coordinatorSchedule() of one configuration, compiled once: CoordSend
 * runs the head (the early RDLock release, the persist's kind), then
 * each Await's segment runs as one action when its gate holds.
 */
struct CoordinatorProgram
{
    bool releaseEarly = false;
    bool persistInline = false; ///< Persist (CPersist), not PersistLater
    std::uint8_t firstWait = CDone;
    /** Indexed by pc - CWaitAcks. */
    std::array<CoordSegment, 2> segments{};
    /** The pc after a cut write's ConsistencySpin: CObsWaitP where
     *  handleObsolete() (obsoleteSchedule's spins) has a
     *  PersistencySpin, else CDone. */
    std::uint8_t afterObsWaitC = CDone;

    CoordinatorProgram(PersistModel model, bool releaseRdLockEarly)
    {
        for (FollowerStep step : obsoleteSchedule(model)) {
            if (step == FollowerStep::AwaitGlbDurable)
                afterObsWaitC = CObsWaitP;
        }
        const CoordinatorSchedule sched =
            simproto::coordinatorSchedule(model, releaseRdLockEarly);
        const CoordinatorStep *g = sched.segmentEnd(sched.begin());
        for (const CoordinatorStep *s = sched.begin(); s != g; ++s) {
            releaseEarly |= *s == CoordinatorStep::ReleaseRdLock;
            persistInline |= *s == CoordinatorStep::Persist;
        }
        if (g != sched.end())
            firstWait = pcOf(*g);
        while (g != sched.end()) {
            const CoordinatorStep *e = sched.segmentEnd(g);
            CoordSegment &seg = segments[pcOf(*g) - CWaitAcks];
            seg.gate = sched.gateOf(g);
            for (const CoordinatorStep *s = g + 1; s != e; ++s) {
                seg.raiseV |= *s == CoordinatorStep::RaiseGlbVolatile;
                seg.raiseD |= *s == CoordinatorStep::RaiseGlbDurable;
                seg.release |= *s == CoordinatorStep::ReleaseRdLock;
                if (*s == CoordinatorStep::SendVal ||
                    *s == CoordinatorStep::SendValP)
                    seg.vals |= bitOf(simproto::valOf(model, *s));
            }
            if (e != sched.end())
                seg.next = pcOf(*e);
            seg.action = *g == CoordinatorStep::AwaitAcksP ? "CoordCommitP"
                         : !seg.vals                       ? "CoordReturn"
                         : usesSplitAcks(model)            ? "CoordCommitC"
                                                           : "CoordCommit";
            g = e;
        }
    }
};

/** Scope-[PERSIST] per-node bits. */
enum PBit : std::uint8_t
{
    PInFlight = 1,
    PReceived = 2,
    PAckInFlight = 4,
    PValInFlight = 8,
    PTerminated = 16,
};

// The BFS queue packs each State field to the width of its range in
// state.hh: the values this file stores must stay inside those ranges.
static_assert(CDone <= detail::fieldAt(offsetof(State, cpc)).hi);
static_assert((BitValP << 1) - 1 <=
              detail::fieldAt(offsetof(State, msgs)).hi);
static_assert(fpcDone == 0xFF &&
              detail::fieldAt(offsetof(State, fpc)).lo == -1);
static_assert(std::tuple_size_v<decltype(FollowerProgram::instrs)> - 1 <=
              detail::fieldAt(offsetof(State, fpc)).hi);
static_assert((PTerminated << 1) - 1 <=
              detail::fieldAt(offsetof(State, pMsgs)).hi);
// ppc runs 0 (idle), 1 (flushing), 2 (committed).
static_assert(maxNodes <= 3, "Ctx::tsOf packs a writer into 2 bits");
static_assert(detail::fieldAt(offsetof(State, ppc)).hi >= 2);

/** Exploration context. */
struct Ctx
{
    CheckConfig cfg;
    int W; // number of writes
    int N; // number of nodes
    FollowerProgram follower;
    CoordinatorProgram coordinator;

    /** cfg.writers, in an array of fixed size. */
    std::array<int, maxWrites> writer;

    /**
     * Timestamp of write i, (version, writer), as one int ordered the
     * same way: version * 4 + writer + 1, with (-1, -1) for none (-1).
     * Writers are below 3, so the writer never carries into the version.
     */
    int
    tsOf(const State &s, int i) const
    {
        if (i < 0)
            return -4;
        return s.ver[i] * 4 + writer[static_cast<std::size_t>(i)] + 1;
    }

    /** Is write a's timestamp strictly newer than write b's? */
    bool
    newer(const State &s, int a, int b) const
    {
        return tsOf(s, a) > tsOf(s, b);
    }

    /** glb field (txn index) has reached observed (txn index)? */
    bool
    reached(const State &s, std::int8_t glb, std::int8_t observed) const
    {
        return !(tsOf(s, observed) > tsOf(s, glb));
    }

    int writerOf(int i) const
    {
        return writer[static_cast<std::size_t>(i)];
    }

    std::uint8_t
    followerMaskOf(int i) const
    {
        std::uint8_t all = static_cast<std::uint8_t>((1u << N) - 1);
        return all & static_cast<std::uint8_t>(~(1u << writerOf(i)));
    }
};

void
raiseField(const Ctx &ctx, const State &s, std::int8_t &field, int i)
{
    if (ctx.newer(s, i, field))
        field = static_cast<std::int8_t>(i);
}

void
releaseIfOwner(State &s, int node, int i)
{
    if (s.rdOwner[node] == static_cast<std::int8_t>(i))
        s.rdOwner[node] = -1;
}

/** Put message @p bit of write @p i in flight to every follower. */
void
sendToFollowers(const Ctx &ctx, State &s, int i, std::uint8_t bit)
{
    const int c = ctx.writerOf(i);
    for (int n = 0; n < ctx.N; ++n) {
        if (n != c)
            s.msgs[i][n] |= bit;
    }
}

/**
 * Node @p m's durable-log frontier has reached write @p i: the write
 * itself, or a newer write that obsoleted it, is persisted at m
 * (equivalent under the log's obsoleteness filter, §V-B.4).
 */
bool
frontierReached(const Ctx &ctx, const State &s, int i, int m)
{
    for (int j = 0; j < ctx.W; ++j) {
        if (s.durable[j][m] && !ctx.newer(s, i, j))
            return true;
    }
    return false;
}

/** Does coordinator gate @p g hold for write @p i at its writer @p c? */
bool
gateHolds(const CoordinatorGate &g, const State &s, int i,
          std::uint8_t fmask, int c)
{
    return (!g.acksC || (s.ackCMask[i] & fmask) == fmask) &&
           (!g.acksP || (s.ackPMask[i] & fmask) == fmask) &&
           (!g.localPersist || (s.durable[i][c] && !s.bgPending[i]));
}

/**
 * Can follower @p n of write @p i run @p in now? A spin waits for its
 * glb field to reach the newer write; a persist always can.
 */
bool
canRun(const Ctx &ctx, const State &s, const FollowerInstr &in, int i,
       int n)
{
    switch (in.step) {
      case FollowerStep::AwaitGlbVolatile:
        return ctx.cfg.bugSkipConsistencySpin ||
               ctx.reached(s, s.glbV[n], s.fObs[i][n]);
      case FollowerStep::AwaitGlbDurable:
        return ctx.reached(s, s.glbD[n], s.fObs[i][n]);
      default:
        return true;
    }
}

/** Enumerate every successor of @p s; calls @p emit for each. */
template <class Emit>
void
forEachSuccessor(const Ctx &ctx, const State &s, Emit &&emit)
{
    const auto &cfg = ctx.cfg;
    const CoordinatorProgram &coord = ctx.coordinator;

    for (int i = 0; i < ctx.W; ++i) {
        const int c = ctx.writerOf(i);

        // --- StartWrite ---
        if (s.cpc[i] == CInit) {
            State ns = s;
            int vol_ver = s.vol[c] >= 0 ? s.ver[s.vol[c]] : -1;
            int ver = std::max<int>(vol_ver + 1, s.nextVer[c]);
            ns.ver[i] = static_cast<std::int8_t>(ver);
            ns.nextVer[c] = static_cast<std::int8_t>(ver + 1);
            if (ctx.newer(ns, ns.vol[c], i)) {
                ns.obsObs[i] = ns.vol[c];
                ns.cpc[i] = CObsWaitC;
            } else {
                if (ctx.newer(ns, i, ns.rdOwner[c]))
                    ns.rdOwner[c] = static_cast<std::int8_t>(i);
                ns.cpc[i] = CSending;
            }
            emit(ns, "StartWrite");
        }

        // --- CoordSend (final obsoleteness check + INVs + LLC) ---
        if (s.cpc[i] == CSending) {
            State ns = s;
            if (ctx.newer(s, s.vol[c], i)) {
                ns.obsObs[i] = s.vol[c];
                ns.cpc[i] = CObsWaitC;
            } else {
                sendToFollowers(ctx, ns, i, BitInv);
                ns.vol[c] = static_cast<std::int8_t>(i);
                if (coord.releaseEarly)
                    releaseIfOwner(ns, c, i);
                if (coord.persistInline) {
                    ns.cpc[i] = CPersist;
                } else {
                    ns.bgPending[i] = 1;
                    ns.cpc[i] = coord.firstWait;
                }
            }
            emit(ns, "CoordSend");
        }

        // --- Coordinator critical-path persist ---
        if (s.cpc[i] == CPersist) {
            State ns = s;
            ns.durable[i][c] = 1;
            ns.cpc[i] = coord.firstWait;
            emit(ns, "CoordPersist");
        }

        // --- Coordinator background persist (any time once pending) ---
        if (s.bgPending[i]) {
            State ns = s;
            ns.durable[i][c] = 1;
            ns.bgPending[i] = 0;
            emit(ns, "CoordBgPersist");
        }

        // --- Coordinator segments, each atomic once its gate holds ---
        if (s.cpc[i] == CWaitAcks || s.cpc[i] == CWaitAcksP) {
            const CoordSegment &seg = coord.segments[s.cpc[i] - CWaitAcks];
            if (gateHolds(seg.gate, s, i, ctx.followerMaskOf(i), c)) {
                State ns = s;
                if (seg.raiseV)
                    raiseField(ctx, ns, ns.glbV[c], i);
                if (seg.raiseD)
                    raiseField(ctx, ns, ns.glbD[c], i);
                if (seg.release)
                    releaseIfOwner(ns, c, i);
                if (seg.vals)
                    sendToFollowers(ctx, ns, i, seg.vals);
                ns.cpc[i] = seg.next;
                emit(ns, seg.action);
            }
        }

        // --- Coordinator obsolete-path spins ---
        if (s.cpc[i] == CObsWaitC &&
            (cfg.bugSkipConsistencySpin ||
             ctx.reached(s, s.glbV[c], s.obsObs[i]))) {
            State ns = s;
            ns.cpc[i] = coord.afterObsWaitC;
            if (ns.cpc[i] == CDone)
                releaseIfOwner(ns, c, i);
            emit(ns, "CoordObsWaitC");
        }
        if (s.cpc[i] == CObsWaitP &&
            ctx.reached(s, s.glbD[c], s.obsObs[i])) {
            State ns = s;
            releaseIfOwner(ns, c, i);
            ns.cpc[i] = CDone;
            emit(ns, "CoordObsWaitP");
        }

        // --- Follower actions ---
        for (int n = 0; n < ctx.N; ++n) {
            if (n == c)
                continue;

            // Deliver INV: start the applied or the obsolete schedule.
            if (s.msgs[i][n] & BitInv) {
                State ns = s;
                ns.msgs[i][n] &= static_cast<std::uint8_t>(~BitInv);
                const FollowerInstr *head = &ctx.follower.applied;
                if (ctx.newer(s, s.vol[n], i)) {
                    ns.fObs[i][n] = s.vol[n];
                    head = &ctx.follower.obsolete;
                } else {
                    if (ctx.newer(ns, i, ns.rdOwner[n]))
                        ns.rdOwner[n] = static_cast<std::int8_t>(i);
                    ns.vol[n] = static_cast<std::int8_t>(i);
                }
                ns.msgs[i][n] |= head->acks;
                ns.fpc[i][n] = head->next;
                emit(ns, "DeliverInv");
            }

            // The follower's next persist or spin, once enabled.
            if (s.fpc[i][n] != fpcIdle && s.fpc[i][n] != fpcDone) {
                const FollowerInstr &in = ctx.follower.instrs[s.fpc[i][n]];
                if (canRun(ctx, s, in, i, n)) {
                    State ns = s;
                    if (in.step == FollowerStep::Persist ||
                        in.step == FollowerStep::PersistLater)
                        ns.durable[i][n] = 1;
                    ns.msgs[i][n] |= in.acks;
                    ns.fpc[i][n] = in.next;
                    emit(ns, in.action);
                }
            }

            // Deliver ACK family to the coordinator.
            for (auto [bit, name] :
                 {std::pair{BitAck, "DeliverAck"},
                  std::pair{BitAckC, "DeliverAckC"},
                  std::pair{BitAckP, "DeliverAckP"}}) {
                if (s.msgs[i][n] & bit) {
                    State ns = s;
                    ns.msgs[i][n] &= static_cast<std::uint8_t>(~bit);
                    // Synch's combined ACK gates like an ACK_C.
                    std::uint8_t &mask =
                        bit == BitAckP ? ns.ackPMask[i] : ns.ackCMask[i];
                    mask |= static_cast<std::uint8_t>(1u << n);
                    emit(ns, name);
                }
            }

            // Deliver VAL family to the follower.
            for (auto [bit, type, name] :
                 {std::tuple{BitVal, net::MsgType::VAL, "DeliverVal"},
                  std::tuple{BitValC, net::MsgType::VAL_C, "DeliverValC"},
                  std::tuple{BitValP, net::MsgType::VAL_P, "DeliverValP"}}) {
                if (s.msgs[i][n] & bit) {
                    const simproto::ValEffect effect =
                        simproto::valEffect(type);
                    State ns = s;
                    ns.msgs[i][n] &= static_cast<std::uint8_t>(~bit);
                    if (effect.raisesGlbVolatile)
                        raiseField(ctx, ns, ns.glbV[n], i);
                    if (effect.raisesGlbDurable)
                        raiseField(ctx, ns, ns.glbD[n], i);
                    if (effect.releasesRdLock)
                        releaseIfOwner(ns, n, i);
                    emit(ns, name);
                }
            }
        }
    }

    // --- [PERSIST]sc transaction (<Lin, Scope>) ---
    if (isScopeModel(ctx.cfg.model)) {
        const int pc = 0; // persist coordinator: node 0
        bool all_done = true;
        for (int i = 0; i < ctx.W; ++i)
            all_done &= (s.cpc[i] == CDone);

        if (s.ppc == 0 && all_done) {
            State ns = s;
            // Bounded by maxNodes so that, inlined into the BFS loop,
            // no out-of-range path is left for -Wstringop-overflow.
            for (int n = 0; n < maxNodes; ++n) {
                if (n != pc && n < ctx.N)
                    ns.pMsgs[n] |= PInFlight;
            }
            ns.ppc = 1;
            emit(ns, "PersistScStart");
        }
        for (int n = 0; n < ctx.N; ++n) {
            if (n == pc)
                continue;
            if (s.pMsgs[n] & PInFlight) {
                State ns = s;
                ns.pMsgs[n] &=
                    static_cast<std::uint8_t>(~PInFlight);
                ns.pMsgs[n] |= PReceived;
                emit(ns, "PersistScDeliver");
            }
            if (s.pMsgs[n] & PReceived) {
                // Respond only once every scoped write's durability is
                // covered by this node's log frontier (obsolete writes
                // are subsumed by the newer write that displaced them).
                bool flushed = true;
                for (int i = 0; i < ctx.W; ++i)
                    flushed &= frontierReached(ctx, s, i, n);
                if (flushed) {
                    State ns = s;
                    ns.pMsgs[n] &=
                        static_cast<std::uint8_t>(~PReceived);
                    ns.pMsgs[n] |= PAckInFlight;
                    emit(ns, "PersistScAckSend");
                }
            }
            if (s.pMsgs[n] & PAckInFlight) {
                State ns = s;
                ns.pMsgs[n] &=
                    static_cast<std::uint8_t>(~PAckInFlight);
                ns.pAckMask |= static_cast<std::uint8_t>(1u << n);
                emit(ns, "PersistScAckDeliver");
            }
            if (s.pMsgs[n] & PValInFlight) {
                State ns = s;
                ns.pMsgs[n] &=
                    static_cast<std::uint8_t>(~PValInFlight);
                ns.pMsgs[n] |= PTerminated;
                emit(ns, "PersistScValDeliver");
            }
        }
        if (s.ppc == 1) {
            std::uint8_t all =
                static_cast<std::uint8_t>((1u << ctx.N) - 1);
            std::uint8_t fmask =
                all & static_cast<std::uint8_t>(~(1u << pc));
            bool local_flushed = true;
            for (int i = 0; i < ctx.W; ++i)
                local_flushed &= frontierReached(ctx, s, i, pc);
            if ((s.pAckMask & fmask) == fmask && local_flushed) {
                State ns = s;
                // Bounded by maxNodes so that, inlined into the BFS loop,
                // no out-of-range path is left for -Wstringop-overflow.
                for (int n = 0; n < maxNodes; ++n) {
                    if (n != pc && n < ctx.N)
                        ns.pMsgs[n] |= PValInFlight;
                }
                ns.ppc = 2;
                emit(ns, "PersistScCommit");
            }
        }
    }
}

/** Is @p s a final (fully quiescent) state? */
bool
isFinal(const Ctx &ctx, const State &s)
{
    for (int i = 0; i < ctx.W; ++i) {
        if (s.cpc[i] != CDone || s.bgPending[i])
            return false;
        for (int n = 0; n < ctx.N; ++n) {
            if (s.msgs[i][n] != 0)
                return false;
            if (s.fpc[i][n] != fpcIdle && s.fpc[i][n] != fpcDone)
                return false;
        }
    }
    if (isScopeModel(ctx.cfg.model)) {
        if (s.ppc != 2)
            return false;
        for (int n = 1; n < ctx.N; ++n) {
            if (s.pMsgs[n] != 0 && s.pMsgs[n] != PTerminated)
                return false;
        }
    }
    return true;
}

std::string
describeState(const Ctx &ctx, const State &s)
{
    std::ostringstream os;
    os << "nodes:";
    for (int n = 0; n < ctx.N; ++n) {
        os << " [rd=" << int(s.rdOwner[n]) << " vol=" << int(s.vol[n])
           << " gV=" << int(s.glbV[n]) << " gD=" << int(s.glbD[n])
           << "]";
    }
    os << " cpc:";
    for (int i = 0; i < ctx.W; ++i)
        os << " " << int(s.cpc[i]);
    return os.str();
}

/** Check every Table I condition on @p s; append violations. */
void
checkInvariants(const Ctx &ctx, const State &s,
                std::vector<Violation> &out)
{
    const PersistModel model = ctx.cfg.model;

    // 2a: all read-unlocked => volatileTS and glb_volatileTS agree.
    bool all_unlocked = true;
    for (int n = 0; n < ctx.N; ++n)
        all_unlocked &= (s.rdOwner[n] == -1);
    if (all_unlocked) {
        for (int n = 1; n < ctx.N; ++n) {
            if (ctx.tsOf(s, s.vol[n]) != ctx.tsOf(s, s.vol[0])) {
                out.push_back(Violation{"2a-volatileTS",
                           describeState(ctx, s),
                           {}});
                break;
            }
        }
        for (int n = 1; n < ctx.N; ++n) {
            if (ctx.tsOf(s, s.glbV[n]) != ctx.tsOf(s, s.glbV[0])) {
                out.push_back(Violation{"2a-glb_volatileTS",
                           describeState(ctx, s),
                           {}});
                break;
            }
        }
    }

    for (int i = 0; i < ctx.W; ++i) {
        if (s.ver[i] < 0)
            continue;
        const std::uint8_t fmask = ctx.followerMaskOf(i);
        const bool sent = s.cpc[i] >= CPersist && s.cpc[i] < CObsWaitC;
        const bool all_c = (s.ackCMask[i] & fmask) == fmask;

        // 2b: all consistency ACKs => every replica at/above TS_WR.
        if (sent && all_c) {
            for (int n = 0; n < ctx.N; ++n) {
                if (ctx.newer(s, i, s.vol[n])) {
                    out.push_back(Violation{"2b-replicas-behind-acked-write",
                           describeState(ctx, s),
                           {}});
                    break;
                }
            }
        }

        // 2c: not all consistency ACKs => the write is not marked
        // globally visible anywhere.
        if (sent && !all_c) {
            for (int n = 0; n < ctx.N; ++n) {
                if (s.glbV[n] == static_cast<std::int8_t>(i)) {
                    out.push_back(Violation{"2c-early-glb_volatileTS",
                           describeState(ctx, s),
                           {}});
                    break;
                }
            }
        }

        // 3b: not all persistency ACKs => the write is not marked
        // globally durable anywhere (models that track persistency).
        if (tracksPersistPerWrite(model) && sent) {
            const std::uint8_t pmask = model == PersistModel::Synch
                                           ? s.ackCMask[i]
                                           : s.ackPMask[i];
            bool all_p = (pmask & fmask) == fmask;
            if (!all_p) {
                for (int n = 0; n < ctx.N; ++n) {
                    if (s.glbD[n] == static_cast<std::int8_t>(i)) {
                        out.push_back(Violation{"3b-early-glb_durableTS",
                           describeState(ctx, s),
                           {}});
                        break;
                    }
                }
            }
        }

        // 3a (durability soundness): a replica marking the write
        // globally durable implies every node's durable-log frontier
        // has reached the write's timestamp (the write itself, or a
        // newer one that obsoleted it, is persisted everywhere — the
        // log's obsoleteness filter makes these equivalent, §V-B.4).
        for (int n = 0; n < ctx.N; ++n) {
            if (s.glbD[n] != static_cast<std::int8_t>(i))
                continue;
            for (int m = 0; m < ctx.N; ++m) {
                bool frontier_ok = false;
                for (int j = 0; j < ctx.W; ++j) {
                    if (s.durable[j][m] &&
                        !ctx.newer(s, i, j)) { // ts_j >= ts_i
                        frontier_ok = true;
                        break;
                    }
                }
                if (!frontier_ok) {
                    out.push_back(Violation{"3a-glb_durable-without-replica-durable",
                           describeState(ctx, s),
                           {}});
                    break;
                }
            }
        }

        // Read-enforced durability (the defining property of REnf, and
        // implied by Synch's combined ACK/VAL): wherever the write is
        // applied AND readable (RDLock free), it must already be
        // durable on every replica. Strict/Event/Scope deliberately do
        // not provide this for reads.
        if (readImpliesDurableEverywhere(model)) {
            for (int n = 0; n < ctx.N; ++n) {
                if (s.rdOwner[n] != -1 ||
                    s.vol[n] != static_cast<std::int8_t>(i))
                    continue;
                for (int m = 0; m < ctx.N; ++m) {
                    if (!frontierReached(ctx, s, i, m)) {
                        out.push_back(Violation{"renf-readable-but-not-durable",
                           describeState(ctx, s),
                           {}});
                        break;
                    }
                }
            }
        }

        // 4c: bookkeeping masks only contain follower senders.
        if ((s.ackCMask[i] | s.ackPMask[i]) & ~fmask) {
            out.push_back(Violation{"4c-bookkeeping-sender-out-of-range",
                           describeState(ctx, s),
                           {}});
        }

        // 4a: only legal message kinds for the model.
        std::uint8_t legal = BitInv;
        switch (model) {
          case PersistModel::Synch:
            legal |= BitAck | BitVal;
            break;
          case PersistModel::Strict:
            legal |= BitAckC | BitAckP | BitValC | BitValP;
            break;
          case PersistModel::REnf:
            legal |= BitAckC | BitAckP | BitVal;
            break;
          case PersistModel::Event:
          case PersistModel::Scope:
            legal |= BitAckC | BitValC;
            break;
        }
        for (int n = 0; n < ctx.N; ++n) {
            if (s.msgs[i][n] & ~legal) {
                out.push_back(Violation{"4a-illegal-message",
                           describeState(ctx, s),
                           {}});
                break;
            }
        }

        // 4b: version bounded by the number of modeled writes.
        if (s.ver[i] >= static_cast<std::int8_t>(ctx.W) + 1) {
            out.push_back(Violation{"4b-version-out-of-range",
                           describeState(ctx, s),
                           {}});
        }
    }

    // Scope: a completed [PERSIST]sc implies every scoped write's
    // durability is covered by every node's log frontier.
    if (isScopeModel(model) && s.ppc == 2) {
        for (int i = 0; i < ctx.W; ++i) {
            if (s.ver[i] < 0)
                continue;
            for (int n = 0; n < ctx.N; ++n) {
                if (!frontierReached(ctx, s, i, n)) {
                    out.push_back(Violation{"scope-persist-incomplete",
                           describeState(ctx, s),
                           {}});
                }
            }
        }
    }
}

} // namespace

CheckResult
checkModel(const CheckConfig &cfg)
{
    MINOS_ASSERT(cfg.numNodes >= 2 && cfg.numNodes <= maxNodes,
                 "checker supports 2..", maxNodes, " nodes");
    MINOS_ASSERT(!cfg.writers.empty() &&
                 cfg.writers.size() <= maxWrites,
                 "checker supports 1..", maxWrites, " writes");
    for (int w : cfg.writers)
        MINOS_ASSERT(w >= 0 && w < cfg.numNodes, "bad writer ", w);
    MINOS_ASSERT(cfg.maxStates >= 1 &&
                     cfg.maxStates <
                         std::numeric_limits<std::uint32_t>::max(),
                 "maxStates must be in [1, 2^32 - 1)");

    std::array<int, maxWrites> writer{};
    std::copy(cfg.writers.begin(), cfg.writers.end(), writer.begin());
    const Ctx ctx{cfg, static_cast<int>(cfg.writers.size()), cfg.numNodes,
                  FollowerProgram(cfg.model, cfg.bugAckBeforePersist),
                  CoordinatorProgram(cfg.model, cfg.bugReleaseRdLockEarly),
                  writer};

    State init;
    std::memset(&init, 0, sizeof(State));
    for (int n = 0; n < maxNodes; ++n) {
        init.rdOwner[n] = -1;
        init.vol[n] = -1;
        init.glbV[n] = -1;
        init.glbD[n] = -1;
        init.nextVer[n] = 0;
    }
    for (int i = 0; i < maxWrites; ++i) {
        init.ver[i] = -1;
        init.obsObs[i] = -1;
        for (int n = 0; n < maxNodes; ++n)
            init.fObs[i][n] = -1;
    }

    CheckResult result;
    FingerprintSet seen;
    RecentFingerprints recent;
    seen.insert(hashState(init));
    /** Discovering state and action per state (recordTraces only). */
    std::vector<std::uint32_t> parents;
    std::vector<const char *> actions;
    if (cfg.recordTraces) {
        parents.push_back(0);
        actions.push_back(nullptr);
    }
    checkInvariants(ctx, init, result.violations);

    constexpr std::size_t violationCap = 16;
    /** States whose successors are gathered before any is inserted. */
    constexpr std::size_t lookahead = 16;

    auto traceTo = [&](std::uint32_t index) {
        std::vector<std::string> trace;
        if (!cfg.recordTraces)
            return trace;
        for (; index != 0; index = parents[index])
            trace.push_back(actions[index]);
        std::reverse(trace.begin(), trace.end());
        return trace;
    };

    struct Successor
    {
        State state;
        const char *action;
        std::uint64_t hash;
    };
    // Successors of the states of one lookahead batch; ends[k] is one
    // past the last successor of the batch's k-th state.
    std::vector<Successor> succ;
    succ.reserve(32);
    std::array<std::size_t, lookahead> ends{};
    // The BFS queue holds states only for the rest of the level being
    // expanded and the part of the next level found so far. States
    // leave it in discovery order, so the k-th state expanded is the one
    // with discovery index k.
    StateQueue queue;
    queue.push(init);
    std::array<State, lookahead> expanding;
    std::uint32_t discovered = 1;
    while (!queue.empty() && !result.inconclusive) {
        // Gather the successors of the next states and prefetch each
        // one's home slot, then insert them state by state in emission
        // order: the table's cache misses overlap across states, and
        // the discovery order is the serial one. A state's successors
        // depend on it alone, so expanding it early changes nothing.
        const std::size_t batch = std::min(lookahead, queue.size());
        succ.clear();
        for (std::size_t k = 0; k < batch; ++k) {
            expanding[k] = queue.pop();
            forEachSuccessor(ctx, expanding[k],
                             [&](const State &ns, const char *action) {
                                 succ.emplace_back(ns, action, hashState(ns));
                                 seen.prefetch(succ.back().hash);
                             });
            ends[k] = succ.size();
        }

        for (std::size_t k = 0, first = 0;
             k < batch && !result.inconclusive; first = ends[k++]) {
            const State &s = expanding[k];
            const auto head =
                static_cast<std::uint32_t>(result.statesExplored++);
            result.transitions += ends[k] - first;
            for (std::size_t i = first; i < ends[k]; ++i) {
                const Successor &x = succ[i];
                if (recent.contains(x.hash) || !seen.insert(x.hash))
                    continue;
                recent.add(x.hash);
                if (discovered == cfg.maxStates) {
                    result.inconclusive = true;
                    break;
                }
                const std::uint32_t index = discovered++;
                queue.push(x.state);
                if (cfg.recordTraces) {
                    parents.push_back(head);
                    actions.push_back(x.action);
                }
                if (result.violations.size() < violationCap) {
                    std::size_t before = result.violations.size();
                    checkInvariants(ctx, x.state, result.violations);
                    for (std::size_t v = before; v < result.violations.size();
                         ++v)
                        result.violations[v].trace = traceTo(index);
                }
            }

            if (ends[k] == first) {
                if (isFinal(ctx, s)) {
                    ++result.finalStates;
                } else if (result.violations.size() < violationCap) {
                    Violation v{"1-deadlock", describeState(ctx, s), {}};
                    v.trace = traceTo(head);
                    result.violations.push_back(std::move(v));
                }
            }
        }
    }

    return result;
}

double
fingerprintCollisionBound(std::size_t states)
{
    const double n = static_cast<double>(states);
    return n * (n - 1) / 2 / 0x1p64;
}

} // namespace minos::check
