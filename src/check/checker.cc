#include "checker.hh"

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <sstream>

#include "common/logging.hh"

namespace minos::check {

namespace {

using simproto::isScopeModel;
using simproto::needsPersistencySpin;
using simproto::persistOnCriticalPath;
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

/** Follower program counter (per write, per node). */
enum FPc : std::uint8_t
{
    FIdle = 0,
    FPersist,
    FBgPersist,
    FObsWaitC,
    FObsWaitP,
    FDone,
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

/**
 * The abstract protocol state. All members are single bytes so the
 * struct has no padding and can be hashed bytewise.
 */
struct State
{
    // Per node (one record).
    std::int8_t rdOwner[maxNodes];
    std::int8_t vol[maxNodes];
    std::int8_t glbV[maxNodes];
    std::int8_t glbD[maxNodes];
    std::int8_t nextVer[maxNodes];
    // Per write.
    std::uint8_t cpc[maxWrites];
    std::int8_t ver[maxWrites];
    std::int8_t obsObs[maxWrites];
    std::uint8_t ackMask[maxWrites];
    std::uint8_t ackCMask[maxWrites];
    std::uint8_t ackPMask[maxWrites];
    std::uint8_t bgPending[maxWrites];
    // Per write x node.
    std::uint8_t msgs[maxWrites][maxNodes];
    std::uint8_t fpc[maxWrites][maxNodes];
    std::int8_t fObs[maxWrites][maxNodes];
    std::uint8_t durable[maxWrites][maxNodes];
    // [PERSIST]sc transaction.
    std::uint8_t ppc;
    std::uint8_t pAckMask;
    std::uint8_t pMsgs[maxNodes];
};

static_assert(sizeof(State) ==
                  5 * maxNodes + 7 * maxWrites +
                      4 * maxWrites * maxNodes + 2 + maxNodes,
              "State must be packed (byte members only)");

std::uint64_t
load64(const unsigned char *p)
{
    std::uint64_t w = 0;
    std::memcpy(&w, p, sizeof w);
    return w;
}

/** Fold a 128-bit product: one multiply that mixes every input bit. */
std::uint64_t
mum(std::uint64_t a, std::uint64_t b)
{
    const unsigned __int128 m = static_cast<unsigned __int128>(a) * b;
    return static_cast<std::uint64_t>(m >> 64) ^
           static_cast<std::uint64_t>(m);
}

/**
 * Word-wise 64-bit hash of a State: nine 8-byte words plus one
 * overlapping word for the 5-byte tail, each folded in with one
 * multiply.
 */
std::uint64_t
hashState(const State &s)
{
    constexpr std::uint64_t k0 = 0xA0761D6478BD642Full;
    constexpr std::uint64_t k1 = 0xE7037ED1A0B428DBull;
    const auto *p = reinterpret_cast<const unsigned char *>(&s);
    std::uint64_t h = k0;
    std::size_t off = 0;
    for (; off + 8 <= sizeof(State); off += 8)
        h = mum(h ^ load64(p + off), k1);
    if (off < sizeof(State))
        h = mum(h ^ load64(p + sizeof(State) - 8), k1);
    return mum(h, k0);
}

/**
 * Set of reached states, kept as 64-bit fingerprints (hashState) the
 * way TLC keeps them: no state is stored, so a probe never reads one.
 * Open addressing with linear probing from fp & mask over 8-byte
 * slots; 0 marks an empty slot, so a zero fingerprint is stored as
 * zeroFp. Two distinct states with one fingerprint would be merged;
 * fingerprintCollisionBound() bounds the chance of that.
 */
class FingerprintSet
{
  public:
    FingerprintSet() : slots_(initialSlots, 0) {}

    /** Add @p fp; false if it was already present. */
    bool
    insert(std::uint64_t fp)
    {
        fp = fp ? fp : zeroFp;
        std::uint64_t &slot = probe(slots_, fp);
        if (slot == fp)
            return false;
        slot = fp;
        if (++used_ > slots_.size() / 4 * 3)
            grow();
        return true;
    }

    /** Start loading the home slot of @p fp. */
    void
    prefetch(std::uint64_t fp) const
    {
        __builtin_prefetch(&slots_[fp & (slots_.size() - 1)]);
    }

  private:
    static constexpr std::size_t initialSlots = 512;
    static constexpr std::uint64_t zeroFp = 0x9E3779B97F4A7C15ull;

    /** The slot holding @p fp, else the empty slot where it belongs. */
    static std::uint64_t &
    probe(std::vector<std::uint64_t> &slots, std::uint64_t fp)
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t i = fp & mask;
        while (slots[i] != 0 && slots[i] != fp)
            i = (i + 1) & mask;
        return slots[i];
    }

    /**
     * Double the table by re-inserting the stored fingerprints; no state
     * is rehashed. The old and the new table are both live meanwhile.
     */
    void
    grow()
    {
        std::vector<std::uint64_t> bigger(slots_.size() * 2, 0);
        for (std::uint64_t fp : slots_) {
            if (fp != 0)
                probe(bigger, fp) = fp;
        }
        slots_.swap(bigger);
    }

    std::vector<std::uint64_t> slots_;
    std::size_t used_ = 0;
};

/** Exploration context. */
struct Ctx
{
    CheckConfig cfg;
    int W = 0; // number of writes
    int N = 0; // number of nodes

    /** Timestamp of write i: (version, writer). none() for -1. */
    std::pair<int, int>
    tsOf(const State &s, int i) const
    {
        if (i < 0)
            return {-1, -1};
        return {s.ver[i], cfg.writers[static_cast<std::size_t>(i)]};
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
        return cfg.writers[static_cast<std::size_t>(i)];
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

/** Enumerate every successor of @p s; calls @p emit for each. */
template <class Emit>
void
forEachSuccessor(const Ctx &ctx, const State &s, Emit &&emit)
{
    const auto &cfg = ctx.cfg;
    const PersistModel model = cfg.model;

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
                for (int n = 0; n < ctx.N; ++n) {
                    if (n != c)
                        ns.msgs[i][n] |= BitInv;
                }
                ns.vol[c] = static_cast<std::int8_t>(i);
                if (cfg.bugReleaseRdLockEarly)
                    releaseIfOwner(ns, c, i);
                if (persistOnCriticalPath(model)) {
                    ns.cpc[i] = CPersist;
                } else {
                    ns.bgPending[i] = 1;
                    ns.cpc[i] = CWaitAcks;
                }
            }
            emit(ns, "CoordSend");
        }

        // --- Coordinator critical-path persist ---
        if (s.cpc[i] == CPersist) {
            State ns = s;
            ns.durable[i][c] = 1;
            ns.cpc[i] = CWaitAcks;
            emit(ns, "CoordPersist");
        }

        // --- Coordinator background persist (any time once pending) ---
        if (s.bgPending[i]) {
            State ns = s;
            ns.durable[i][c] = 1;
            ns.bgPending[i] = 0;
            emit(ns, "CoordBgPersist");
        }

        // --- Coordinator gates ---
        const std::uint8_t fmask = ctx.followerMaskOf(i);
        if (s.cpc[i] == CWaitAcks) {
            switch (model) {
              case PersistModel::Synch:
                if ((s.ackMask[i] & fmask) == fmask &&
                    s.durable[i][c]) {
                    State ns = s;
                    raiseField(ctx, ns, ns.glbV[c], i);
                    raiseField(ctx, ns, ns.glbD[c], i);
                    releaseIfOwner(ns, c, i);
                    for (int n = 0; n < ctx.N; ++n) {
                        if (n != c)
                            ns.msgs[i][n] |= BitVal;
                    }
                    ns.cpc[i] = CDone;
                    emit(ns, "CoordCommit");
                }
                break;
              case PersistModel::Strict:
                if ((s.ackCMask[i] & fmask) == fmask) {
                    State ns = s;
                    raiseField(ctx, ns, ns.glbV[c], i);
                    releaseIfOwner(ns, c, i);
                    for (int n = 0; n < ctx.N; ++n) {
                        if (n != c)
                            ns.msgs[i][n] |= BitValC;
                    }
                    ns.cpc[i] = CWaitAcksP;
                    emit(ns, "CoordCommitC");
                }
                break;
              case PersistModel::REnf:
                if ((s.ackCMask[i] & fmask) == fmask) {
                    // Client return; RDLock stays held for REnf.
                    State ns = s;
                    raiseField(ctx, ns, ns.glbV[c], i);
                    ns.cpc[i] = CWaitAcksP;
                    emit(ns, "CoordReturn");
                }
                break;
              case PersistModel::Event:
              case PersistModel::Scope:
                if ((s.ackCMask[i] & fmask) == fmask) {
                    State ns = s;
                    raiseField(ctx, ns, ns.glbV[c], i);
                    releaseIfOwner(ns, c, i);
                    for (int n = 0; n < ctx.N; ++n) {
                        if (n != c)
                            ns.msgs[i][n] |= BitValC;
                    }
                    ns.cpc[i] = CDone;
                    emit(ns, "CoordCommitC");
                }
                break;
            }
        }
        if (s.cpc[i] == CWaitAcksP &&
            (s.ackPMask[i] & fmask) == fmask && s.durable[i][c] &&
            !s.bgPending[i]) {
            State ns = s;
            raiseField(ctx, ns, ns.glbD[c], i);
            if (model == PersistModel::REnf) {
                releaseIfOwner(ns, c, i);
                for (int n = 0; n < ctx.N; ++n) {
                    if (n != c)
                        ns.msgs[i][n] |= BitVal;
                }
            } else { // Strict
                for (int n = 0; n < ctx.N; ++n) {
                    if (n != c)
                        ns.msgs[i][n] |= BitValP;
                }
            }
            ns.cpc[i] = CDone;
            emit(ns, "CoordCommitP");
        }

        // --- Coordinator obsolete-path spins ---
        if (s.cpc[i] == CObsWaitC &&
            (cfg.bugSkipConsistencySpin ||
             ctx.reached(s, s.glbV[c], s.obsObs[i]))) {
            State ns = s;
            if (needsPersistencySpin(model)) {
                ns.cpc[i] = CObsWaitP;
            } else {
                releaseIfOwner(ns, c, i);
                ns.cpc[i] = CDone;
            }
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

            // Deliver INV.
            if (s.msgs[i][n] & BitInv) {
                State ns = s;
                ns.msgs[i][n] &= static_cast<std::uint8_t>(~BitInv);
                if (ctx.newer(s, s.vol[n], i)) {
                    ns.fObs[i][n] = s.vol[n];
                    ns.fpc[i][n] = FObsWaitC;
                } else {
                    if (ctx.newer(ns, i, ns.rdOwner[n]))
                        ns.rdOwner[n] = static_cast<std::int8_t>(i);
                    ns.vol[n] = static_cast<std::int8_t>(i);
                    switch (model) {
                      case PersistModel::Synch:
                        if (cfg.bugAckBeforePersist) {
                            // Mutation: acknowledge before the persist
                            // completes — durability invariant 3a must
                            // flag this.
                            ns.msgs[i][n] |= BitAck;
                            ns.fpc[i][n] = FBgPersist;
                        } else {
                            ns.fpc[i][n] = FPersist;
                        }
                        break;
                      case PersistModel::Strict:
                      case PersistModel::REnf:
                        ns.msgs[i][n] |= BitAckC;
                        ns.fpc[i][n] = FPersist;
                        break;
                      case PersistModel::Event:
                      case PersistModel::Scope:
                        ns.msgs[i][n] |= BitAckC;
                        ns.fpc[i][n] = FBgPersist;
                        break;
                    }
                }
                emit(ns, "DeliverInv");
            }

            // Follower persist (critical path; emits the persist ACK).
            if (s.fpc[i][n] == FPersist) {
                State ns = s;
                ns.durable[i][n] = 1;
                ns.msgs[i][n] |= (model == PersistModel::Synch)
                                     ? BitAck
                                     : BitAckP;
                ns.fpc[i][n] = FDone;
                emit(ns, "FollowerPersist");
            }

            // Follower background persist (weak models).
            if (s.fpc[i][n] == FBgPersist) {
                State ns = s;
                ns.durable[i][n] = 1;
                ns.fpc[i][n] = FDone;
                emit(ns, "FollowerBgPersist");
            }

            // Follower obsolete-path spins.
            if (s.fpc[i][n] == FObsWaitC &&
                (cfg.bugSkipConsistencySpin ||
                 ctx.reached(s, s.glbV[n], s.fObs[i][n]))) {
                State ns = s;
                if (model == PersistModel::Synch) {
                    ns.fpc[i][n] = FObsWaitP;
                } else if (tracksPersistPerWrite(model)) {
                    ns.msgs[i][n] |= BitAckC;
                    ns.fpc[i][n] = FObsWaitP;
                } else {
                    ns.msgs[i][n] |= BitAckC;
                    ns.fpc[i][n] = FDone;
                }
                emit(ns, "FollowerObsWaitC");
            }
            if (s.fpc[i][n] == FObsWaitP &&
                ctx.reached(s, s.glbD[n], s.fObs[i][n])) {
                State ns = s;
                ns.msgs[i][n] |= (model == PersistModel::Synch)
                                     ? BitAck
                                     : BitAckP;
                ns.fpc[i][n] = FDone;
                emit(ns, "FollowerObsWaitP");
            }

            // Deliver ACK family to the coordinator.
            for (auto [bit, name] :
                 {std::pair{BitAck, "DeliverAck"},
                  std::pair{BitAckC, "DeliverAckC"},
                  std::pair{BitAckP, "DeliverAckP"}}) {
                if (s.msgs[i][n] & bit) {
                    State ns = s;
                    ns.msgs[i][n] &= static_cast<std::uint8_t>(~bit);
                    std::uint8_t b =
                        static_cast<std::uint8_t>(1u << n);
                    if (bit == BitAck)
                        ns.ackMask[i] |= b;
                    else if (bit == BitAckC)
                        ns.ackCMask[i] |= b;
                    else
                        ns.ackPMask[i] |= b;
                    emit(ns, name);
                }
            }

            // Deliver VAL family to the follower.
            if (s.msgs[i][n] & BitVal) {
                State ns = s;
                ns.msgs[i][n] &= static_cast<std::uint8_t>(~BitVal);
                raiseField(ctx, ns, ns.glbV[n], i);
                raiseField(ctx, ns, ns.glbD[n], i);
                releaseIfOwner(ns, n, i);
                emit(ns, "DeliverVal");
            }
            if (s.msgs[i][n] & BitValC) {
                State ns = s;
                ns.msgs[i][n] &= static_cast<std::uint8_t>(~BitValC);
                raiseField(ctx, ns, ns.glbV[n], i);
                releaseIfOwner(ns, n, i);
                emit(ns, "DeliverValC");
            }
            if (s.msgs[i][n] & BitValP) {
                State ns = s;
                ns.msgs[i][n] &= static_cast<std::uint8_t>(~BitValP);
                raiseField(ctx, ns, ns.glbD[n], i);
                emit(ns, "DeliverValP");
            }
        }
    }

    // --- [PERSIST]sc transaction (<Lin, Scope>) ---
    if (isScopeModel(ctx.cfg.model) && ctx.cfg.scopePersist) {
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
            if (s.fpc[i][n] != FIdle && s.fpc[i][n] != FDone)
                return false;
        }
    }
    if (isScopeModel(ctx.cfg.model) && ctx.cfg.scopePersist) {
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
        const std::uint8_t cmask =
            model == PersistModel::Synch ? s.ackMask[i]
                                         : s.ackCMask[i];
        const bool all_c = (cmask & fmask) == fmask;

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
                                           ? s.ackMask[i]
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
        if (model == PersistModel::Synch ||
            model == PersistModel::REnf) {
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
        if ((s.ackMask[i] | s.ackCMask[i] | s.ackPMask[i]) & ~fmask) {
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
    if (isScopeModel(model) && ctx.cfg.scopePersist && s.ppc == 2) {
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

    Ctx ctx;
    ctx.cfg = cfg;
    ctx.W = static_cast<int>(cfg.writers.size());
    ctx.N = cfg.numNodes;

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
    std::vector<Successor> succ;
    succ.reserve(32);
    // The BFS queue holds full states only for the rest of the level
    // being expanded and the part of the next level found so far.
    // States leave it in discovery order, so the k-th state expanded is
    // the one with discovery index k.
    std::deque<State> queue{init};
    std::uint32_t discovered = 1;
    while (!queue.empty() && !result.inconclusive) {
        const State &s = queue.front(); // push_back does not move it
        const auto head =
            static_cast<std::uint32_t>(result.statesExplored++);

        // Gather the successors and prefetch each one's home slot, then
        // insert them in emission order: the cache misses overlap, and
        // discovery order is the same as inserting at emission.
        succ.clear();
        forEachSuccessor(ctx, s, [&](const State &ns, const char *action) {
            succ.push_back({ns, action, hashState(ns)});
            seen.prefetch(succ.back().hash);
        });
        result.transitions += succ.size();
        for (const Successor &x : succ) {
            if (!seen.insert(x.hash))
                continue;
            if (discovered == cfg.maxStates) {
                result.inconclusive = true;
                break;
            }
            const std::uint32_t index = discovered++;
            queue.push_back(x.state);
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

        if (succ.empty()) {
            if (isFinal(ctx, s)) {
                ++result.finalStates;
            } else if (result.violations.size() < violationCap) {
                Violation v{"1-deadlock", describeState(ctx, s), {}};
                v.trace = traceTo(head);
                result.violations.push_back(std::move(v));
            }
        }
        queue.pop_front();
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
