#include "obs/audit.hh"

#include <array>
#include <bit>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace minos::obs {

using simproto::PersistModel;

namespace {

constexpr std::uint64_t
nodeBit(std::int32_t node)
{
    return (node >= 0 && node < 64) ? (1ull << node) : 0;
}

bool
hasNode(std::uint64_t mask, std::int32_t node)
{
    return (mask & nodeBit(node)) != 0;
}

/**
 * Fold @p rec, a record of the write @p st other than its ClientOpBegin,
 * of kind @p kind (opIdOf() says why apart); true when it is an ACK
 * whose (family, sender) repeats.
 */
[[gnu::always_inline]] inline bool
fold(OpLedger::OpState &st, EventKind kind, const Record &rec)
{
    switch (kind) {
      case EventKind::ClientOpEnd:
        if (opType(rec.aux) == OpType::Write) {
            st.returned = true;
            st.endedObsolete = opObsolete(rec.aux);
        }
        break;

      case EventKind::InvFanout:
      case EventKind::SnicBroadcastInv:
        st.fanout = true;
        break;

      case EventKind::InvObsolete:
        st.obsoleteNodes |= nodeBit(rec.node);
        break;

      case EventKind::PersistDone:
        st.persistNodes |= nodeBit(rec.node);
        break;

      case EventKind::AckReceived: {
        // [ACK_P]sc never gets here: it is not op-keyed (opIdOf).
        const check::AckTally::Family family = st.add(ackType(rec.aux));
        if (family == check::AckTally::notAck)
            break;
        const std::uint64_t bit = nodeBit(ackSender(rec.aux));
        const bool duplicate = (st.seenAck[family] & bit) != 0;
        st.seenAck[family] |= bit;
        return duplicate;
      }

      default:
        // Every other op-keyed record (send-side ACKs included: gates
        // fire on receipt) only locates the op for the auditors' rules.
        break;
    }
    return false;
}

/** The kinds fold() changes a write's state on: only a record of one
 *  of these can make a write quiescent. */
constexpr KindSet foldedKinds =
    kindSet({EventKind::ClientOpEnd, EventKind::InvFanout,
             EventKind::SnicBroadcastInv, EventKind::InvObsolete,
             EventKind::PersistDone, EventKind::AckReceived});

} // namespace

// ---------------------------------------------------------------------
// OpLedger
// ---------------------------------------------------------------------

OpLedger::Applied
OpLedger::apply(const Record &rec)
{
    Applied ap;
    ap.keyed = opIdOf(rec, ap.id);
    if (!ap.keyed)
        return ap;
    if (rec.kind == EventKind::ClientOpBegin) {
        if (opType(rec.aux) != OpType::Write)
            return ap;
        ap.slot = slots_.insert(ap.id, ap.newOp);
        if (ap.newOp)
            ops_.emplace_back();
        ap.op = &ops_[ap.slot];
        ap.op->coordinator = rec.node;
        return ap;
    }
    ap.slot = slots_.find(ap.id);
    if (ap.slot == OpSlots::none)
        return ap;
    ap.op = &ops_[ap.slot];
    ap.duplicateAck = fold(*ap.op, rec.kind, rec);
    return ap;
}

const OpLedger::OpState *
OpLedger::find(const kv::WriteId &id) const
{
    const std::uint32_t slot = slots_.find(id);
    return slot == OpSlots::none ? nullptr : &ops_[slot];
}

// ---------------------------------------------------------------------
// OpTable
// ---------------------------------------------------------------------

OpTable::OpTable(const AuditConfig *cfg)
    : cfg_(cfg), arena_(maxEventsPerOp)
{
    memo_.fill(Head::noEntry);
}

std::uint64_t
OpTable::allNodes() const
{
    return cfg_->numNodes >= 64 ? ~0ull : (1ull << cfg_->numNodes) - 1;
}

bool
OpTable::quiescent(const OpLedger::OpState &st) const
{
    // Nothing more is owed: fanned out and returned, the consistency
    // ACK family (and the per-write persistency family, where the
    // model has one) complete, and every node made the write durable
    // or cut it as obsolete.
    const PersistModel m = cfg_->model;
    const int needed = cfg_->followers();
    if (!st.fanout || !st.returned ||
        !check::consistencyAcksComplete(m, st, needed))
        return false;
    if (simproto::tracksPersistPerWrite(m) &&
        !check::persistencyAcksComplete(m, st, needed))
        return false;
    return ((st.persistNodes | st.obsoleteNodes) & allNodes()) ==
           allNodes();
}

OpLedger::OpState
OpTable::cleanState(const kv::WriteId &id, std::uint64_t cuts) const
{
    using Family = check::AckTally::Family;
    OpLedger::OpState st;
    // The coordinator is TS_WR's node, packed in the word's low bits.
    st.coordinator = static_cast<std::int32_t>(
                         id.ts & ((1u << kv::Timestamp::nodeBits) - 1)) -
                     1;
    st.fanout = true;
    st.returned = true;
    st.persistNodes = allNodes() & ~cuts;
    st.obsoleteNodes = cuts;
    const std::uint64_t followers = allNodes() & ~nodeBit(st.coordinator);
    const int needed = cfg_->followers();
    const PersistModel m = cfg_->model;
    if (!simproto::usesSplitAcks(m)) {
        st.acks = needed;
        st.seenAck[Family::combined] = followers;
        return st;
    }
    st.acksC = needed;
    st.seenAck[Family::consistency] = followers;
    if (simproto::tracksPersistPerWrite(m)) {
        st.acksP = needed;
        st.seenAck[Family::persistency] = followers;
    }
    return st;
}

std::uint32_t
OpTable::addEntry(const kv::WriteId &id, std::uint32_t h)
{
    bool added = false;
    const std::uint32_t slot = slots_.insert(id, added);
    if (added)
        heads_.emplace_back();
    Head &head = heads_[slot];
    std::uint32_t at = freeEntry_;
    if (at == Head::noEntry) {
        at = static_cast<std::uint32_t>(entries_.size());
        entries_.emplace_back();
    } else {
        freeEntry_ = entries_[at].slot;
    }
    if (++fullOps_ > fullPeak_)
        fullPeak_ = fullOps_;
    Entry &e = entries_[at];
    e = Entry{};
    e.id = id;
    e.slot = slot;
    if (head.isStub()) {
        e.op = cleanState(id, head.entryOrCuts);
        e.trace.total = head.stubTotal;
        e.trace.recycled = head.stubRecycled;
        e.admitted = true;
        e.stage = Stage::Recycled;
    }
    head = Head{};
    head.entryOrCuts = at;
    live_.insert(
        h, [](std::uint32_t) { return false; }, [at] { return at; },
        added);
    return at;
}

std::uint32_t
OpTable::locate(const kv::WriteId &id)
{
    const std::uint32_t h = id.hash();
    std::uint32_t at =
        live_.find(h, [&](std::uint32_t x) { return entries_[x].id == id; });
    if (at == SlotIndex::none)
        at = addEntry(id, h);
    return at;
}

[[gnu::always_inline]] inline OpLedger::Applied
OpTable::apply(EventKind kind, const Record &rec)
{
    OpLedger::Applied ap;
    ap.keyed = opIdOf(kind, rec, ap.id);
    if (!ap.keyed)
        return ap;
    std::uint32_t &m = memo_[memoCell(ap.id)];
    if (m == Head::noEntry || !(entries_[m].id == ap.id))
        m = locate(ap.id);
    const std::uint32_t at = m;
    applied_ = at;
    Entry &e = entries_[at];

    if (kind == EventKind::ClientOpBegin) {
        if (opType(rec.aux) == OpType::Write) {
            if (!e.admitted) {
                // Admission order is slot order: a write indexed
                // before later ones moves to the next slot.
                if (e.slot + 1 != slots_.slots()) {
                    heads_[e.slot].entryOrCuts = Head::noEntry;
                    e.slot = slots_.moveToEnd(ap.id);
                    heads_.emplace_back().entryOrCuts = at;
                }
                e.admitted = true;
                ap.newOp = true;
            }
            e.op.coordinator = rec.node;
            ap.op = &e.op;
        }
    } else if (e.admitted) {
        ap.op = &e.op;
        ap.duplicateAck = fold(e.op, kind, rec);
    }
    ap.slot = e.slot;

    if (e.stage == Stage::Recycled)
        quiesce(at);
    arena_.append(e.trace, ap.id, rec);
    return ap;
}

[[gnu::always_inline]] inline void
OpTable::settle(const OpLedger::Applied &ap)
{
    if (ap.op && entries_[applied_].stage == Stage::Live &&
        quiescent(*ap.op))
        quiesce(applied_);
}

void
OpTable::quiesce(std::uint32_t at)
{
    Entry &e = entries_[at];
    if (e.stage == Stage::Windowed)
        return;
    e.stage = Stage::Windowed;
    if (window_.size() < recycleWindow) {
        window_.push_back(at);
        return;
    }
    retire(window_[windowNext_]);
    window_[windowNext_] = at;
    windowNext_ = (windowNext_ + 1) % recycleWindow;
}

void
OpTable::retire(std::uint32_t at)
{
    Entry &e = entries_[at];
    arena_.release(e.trace);
    e.stage = Stage::Recycled;
    const std::uint64_t cuts = e.op.obsoleteNodes;
    if (!e.admitted || e.trace.total > 0xffff || (cuts >> 32) != 0 ||
        !(e.op == cleanState(e.id, cuts)))
        return;
    live_.erase(e.id.hash(), [at](std::uint32_t x) { return x == at; });
    if (std::uint32_t &m = memo_[memoCell(e.id)]; m == at)
        m = Head::noEntry;
    Head &h = heads_[e.slot];
    e.slot = std::exchange(freeEntry_, at);
    --fullOps_;
    h.stubTotal = static_cast<std::uint16_t>(e.trace.total);
    h.stubRecycled = static_cast<std::uint16_t>(e.trace.recycled);
    h.entryOrCuts = static_cast<std::uint32_t>(cuts);
}

const OpLedger::OpState *
OpTable::find(const kv::WriteId &id, OpLedger::OpState &scratch) const
{
    const std::uint32_t slot = slots_.find(id);
    if (slot == OpSlots::none)
        return nullptr;
    const Head &h = heads_[slot];
    if (h.isStub()) {
        scratch = cleanState(id, h.entryOrCuts);
        return &scratch;
    }
    const Entry &e = entries_[h.entryOrCuts];
    return e.admitted ? &e.op : nullptr;
}

// Cold: P4 reads it once per [ACK_P]sc and marked write, off the
// per-record path.
[[gnu::cold]] const OpLedger::OpState *
OpTable::scopedOp(std::uint32_t slot, kv::WriteId &id) const
{
    id = slots_.id(slot);
    const Head *h = &heads_[slot];
    if (!h->isStub() && !h->isEntry()) // left behind by moveToEnd()
        h = &heads_[slots_.find(id)];
    if (h->isStub())
        return nullptr;
    const Entry &e = entries_[h->entryOrCuts];
    return e.admitted ? &e.op : nullptr;
}

std::string
OpTable::render(const kv::WriteId &id) const
{
    const std::uint32_t slot = slots_.find(id);
    if (slot == OpSlots::none)
        return "";
    const Head &h = heads_[slot];
    if (!h.isStub())
        return arena_.render(id, entries_[h.entryOrCuts].trace);
    OpTrace stub;
    stub.total = h.stubTotal;
    stub.recycled = h.stubRecycled;
    return arena_.render(id, stub);
}

// ---------------------------------------------------------------------
// ScopeChains
// ---------------------------------------------------------------------

void
ScopeChains::append(std::uint32_t scope, std::uint32_t slot)
{
    Chain &chain = chains_[scope];
    const std::uint32_t at = chain.len % chunkSlots;
    if (at == 0) {
        const auto k = static_cast<std::uint32_t>(chunks_.size());
        chunks_.emplace_back();
        if (chain.len == 0)
            chain.head = k;
        else
            chunks_[chain.tail].next = k;
        chain.tail = k;
    }
    chunks_[chain.tail].slots[at] = slot;
    ++chain.len;
}

// ---------------------------------------------------------------------
// Auditor base
// ---------------------------------------------------------------------

Auditor::Auditor(const char *name, const AuditConfig *cfg,
                 const OpTraceIndex *index, const OpTable *shared)
    : name_(name), cfg_(cfg), index_(index), shared_(shared)
{
}

void
Auditor::onRecord(const Record &rec)
{
    MINOS_ASSERT(!shared_,
                 "auditor on a shared op table fed a record directly");
    check(rec, own_.apply(rec));
}

// Cold: a violation is the rare path, laid out apart from the rules.
[[gnu::cold]] void
Auditor::violate(const char *rule, Tick when, const kv::WriteId &id,
                 std::string detail)
{
    std::string trace;
    if (shared_)
        trace = shared_->render(id);
    else if (index_)
        trace = index_->render(id);
    violateRaw(rule, when, std::move(detail), std::move(trace));
}

void
Auditor::violateRaw(const char *rule, Tick when, std::string detail,
                    std::string trace)
{
    ++violationCount_;
    if (violations_.size() < maxStoredViolations)
        violations_.push_back(AuditViolation{rule, when,
                                             std::move(detail),
                                             std::move(trace)});
}

void
Auditor::registerInto(MetricsRegistry &reg) const
{
    std::string prefix = std::string("audit.") + name_ + ".";
    reg.counter(prefix + "violations", violationCount_);
    reg.counter(prefix + "ops_audited", opsAudited_);
}

// ---------------------------------------------------------------------
// ConsistencyAuditor (Table I conds. 2b/2c)
// ---------------------------------------------------------------------

ConsistencyAuditor::ConsistencyAuditor(const AuditConfig *cfg,
                                       const OpTraceIndex *index,
                                       const OpTable *shared)
    : Auditor("consistency", cfg, index, shared)
{
}

bool
ConsistencyAuditor::gateReached(const OpLedger::OpState &st) const
{
    return check::consistencyAcksComplete(cfg().model, st, needed());
}

const KindSet ConsistencyAuditor::kinds =
    kindSet({EventKind::ClientOpBegin, EventKind::GlbRaised,
             EventKind::ValSent, EventKind::RdLockReleased,
             EventKind::ClientOpEnd});

void
ConsistencyAuditor::check(const Record &rec, const OpLedger::Applied &ap)
{
    rules(rec.kind, rec, ap);
}

[[gnu::always_inline]] inline void
ConsistencyAuditor::rules(EventKind kind, const Record &rec,
                          const OpLedger::Applied &ap)
{
    if (ap.newOp)
        ++opsAudited_;
    if (!ap.op)
        return;
    const OpLedger::OpState &st = *ap.op;

    switch (kind) {
      case EventKind::GlbRaised:
        // Cond. 2c: glb_volatileTS must not pass a write until all of
        // its consistency ACKs are in.
        if (rec.aux == 0 && !gateReached(st)) [[unlikely]]
            violate("C1-glb-volatile-before-acks", rec.when, ap.id,
                    "glb_volatileTS raised at node " +
                        std::to_string(rec.node) + " with " +
                        std::to_string(st.acks + st.acksC) + "/" +
                        std::to_string(needed()) +
                        " consistency ACKs");
        break;

      case EventKind::ValSent: {
        if (simproto::valEffect(valType(rec.aux)).raisesGlbVolatile &&
            !gateReached(st)) [[unlikely]]
            violate("C2-val-before-acks", rec.when, ap.id,
                    "consistency VAL sent with " +
                        std::to_string(st.acks + st.acksC) + "/" +
                        std::to_string(needed()) +
                        " consistency ACKs");
        break;
      }

      case EventKind::RdLockReleased:
        // A write's RDLock may only drop after its gate, or on a
        // replica that cut the write as obsolete.
        if (!gateReached(st) && !hasNode(st.obsoleteNodes, rec.node) &&
            !st.endedObsolete) [[unlikely]]
            violate("C3-rdlock-released-early", rec.when, ap.id,
                    "RDLock released at node " +
                        std::to_string(rec.node) +
                        " before the consistency gate (" +
                        std::to_string(st.acks + st.acksC) + "/" +
                        std::to_string(needed()) + " ACKs)");
        break;

      case EventKind::ClientOpEnd:
        // Cond. 2b flip side: a validated read may only observe writes
        // whose consistency ACKs are all in.
        if (opType(rec.aux) == OpType::Read &&
            !gateReached(st)) [[unlikely]]
            violate("C4-read-before-validation", rec.when, ap.id,
                    "read at node " + std::to_string(rec.node) +
                        " observed a write with " +
                        std::to_string(st.acks + st.acksC) + "/" +
                        std::to_string(needed()) +
                        " consistency ACKs");
        break;

      default:
        break;
    }
}

// ---------------------------------------------------------------------
// PersistencyAuditor (Table I conds. 3a/3b, per model)
// ---------------------------------------------------------------------

PersistencyAuditor::PersistencyAuditor(const AuditConfig *cfg,
                                       const OpTraceIndex *index,
                                       const OpTable *shared)
    : Auditor("persistency", cfg, index, shared)
{
}

bool
PersistencyAuditor::persistGateReached(
    const OpLedger::OpState &st) const
{
    // Durable everywhere: every persistency ACK, and the coordinator's
    // own persist, which no ACK certifies.
    return hasNode(st.persistNodes, st.coordinator) &&
           check::persistencyAcksComplete(cfg().model, st, needed());
}

void
PersistencyAuditor::checkScopeAck(const Record &rec)
{
    // <Lin, Scope> cond.: a follower's [ACK_P]sc certifies that
    // everything written into the scope is durable there. Checked when
    // the ACK leaves the follower: by receipt time the scope may have
    // flushed anyway, masking a premature acknowledgment.
    const std::int32_t sender = ackSender(rec.aux);
    if (sender < 0)
        return;
    scopes_.forEach(static_cast<std::uint64_t>(rec.a0),
                    [&](std::uint32_t slot) {
        kv::WriteId id;
        const OpLedger::OpState *st;
        if (shared())
            st = shared()->scopedOp(slot, id);
        else
            st = ownOp(id = marked_.id(slot));
        if (st && st->fanout &&
            !hasNode(st->persistNodes | st->obsoleteNodes,
                     sender)) [[unlikely]]
            violate("P4-scope-ack-before-flush", rec.when, id,
                    "[ACK_P]sc from node " + std::to_string(sender) +
                        " for scope " + std::to_string(rec.a0) +
                        " with an in-scope write not yet durable there");
    });
}

const KindSet PersistencyAuditor::kinds =
    kindSet({EventKind::ScopeMark, EventKind::AckSent,
             EventKind::ClientOpBegin, EventKind::ValSent,
             EventKind::GlbRaised, EventKind::ClientOpEnd});

void
PersistencyAuditor::check(const Record &rec, const OpLedger::Applied &ap)
{
    rules(rec.kind, rec, ap);
}

[[gnu::always_inline]] inline void
PersistencyAuditor::rules(EventKind kind, const Record &rec,
                          const OpLedger::Applied &ap)
{
    if (kind == EventKind::ScopeMark && ap.keyed) {
        // opIdOf names the marked write; one without a TS_WR is no
        // write any rule could find.
        bool added = false;
        scopes_.append(
            static_cast<std::uint32_t>(static_cast<std::uint64_t>(rec.a0) >>
                                       32),
            shared() ? ap.slot : marked_.insert(ap.id, added));
    }
    if (kind == EventKind::AckSent &&
        ackType(rec.aux) == net::MsgType::ACK_P_SC) {
        checkScopeAck(rec);
        return;
    }

    if (ap.newOp)
        ++opsAudited_;
    if (!ap.op)
        return;
    const OpLedger::OpState &st = *ap.op;

    switch (kind) {
      case EventKind::AckSent: {
        // Cond. 3a: an ACK carrying persistency (ACK_P, or Synch's
        // combined ACK) certifies durability at its sender, so the
        // sender must be durable (or an obsolete-cut) when the ACK
        // leaves. Receipt time is too late to check: the persist often
        // completes while the ACK is still in the network.
        const net::MsgType type = ackType(rec.aux);
        std::int32_t sender = ackSender(rec.aux);
        if ((type == net::MsgType::ACK_P || type == net::MsgType::ACK) &&
            sender >= 0 &&
            !hasNode(st.persistNodes | st.obsoleteNodes,
                     sender)) [[unlikely]]
            violate("P1-ack-before-persist", rec.when, ap.id,
                    "persistency ACK sent by node " +
                        std::to_string(sender) +
                        " before its persist completed");
        break;
      }

      case EventKind::ValSent: {
        // Cond. 3b: no persistency validation (VAL, VAL_P) before all
        // ACK_Ps.
        if (simproto::valEffect(valType(rec.aux)).raisesGlbDurable &&
            !persistGateReached(st)) [[unlikely]]
            violate("P2-val-before-persist-acks", rec.when, ap.id,
                    "persistency VAL sent with " +
                        std::to_string(st.acks + st.acksP) + "/" +
                        std::to_string(needed()) +
                        " persistency ACKs");
        break;
      }

      case EventKind::GlbRaised:
        // Cond. 3b: glb_durableTS must not pass a write until all of
        // its persistency ACKs are in. Event/Scope never raise it per
        // write, so any such raise there is a violation too.
        if (rec.aux == 1 && !persistGateReached(st)) [[unlikely]]
            violate("P6-glb-durable-before-acks", rec.when, ap.id,
                    "glb_durableTS raised at node " +
                        std::to_string(rec.node) + " with " +
                        std::to_string(st.acks + st.acksP) + "/" +
                        std::to_string(needed()) +
                        " persistency ACKs");
        break;

      case EventKind::ClientOpEnd:
        // Model-specific read rule: Synch and REnf promise any
        // readable record is already durable on every replica (REnf:
        // "no read returns before the record is durable everywhere").
        if (opType(rec.aux) == OpType::Read &&
            check::readImpliesDurableEverywhere(cfg().model) &&
            !persistGateReached(st)) [[unlikely]]
            violate("P3-read-before-durable", rec.when, ap.id,
                    "read at node " + std::to_string(rec.node) +
                        " observed a write with " +
                        std::to_string(st.acks + st.acksP) + "/" +
                        std::to_string(needed()) +
                        " persistency ACKs");
        break;

      default:
        break;
    }
}

void
PersistencyAuditor::finish()
{
    // Quiescence (cond. 3a at end of run): every fanned-out write must
    // be durable (or have been cut as obsolete) on every node — all
    // five models eventually persist everything they applied.
    forEachOp([&](const kv::WriteId &id, const OpLedger::OpState &st) {
        if (!st.fanout)
            return;
        std::uint64_t covered = st.persistNodes | st.obsoleteNodes;
        std::string missing;
        for (int n = 0; n < cfg().numNodes; ++n) {
            if (hasNode(covered, n))
                continue;
            if (!missing.empty())
                missing += ',';
            missing += std::to_string(n);
        }
        if (!missing.empty())
            violate("P5-not-durable-at-quiescence", 0, id,
                    "write never became durable on node(s) " +
                        missing);
    });
}

// ---------------------------------------------------------------------
// AckConservationAuditor
// ---------------------------------------------------------------------

AckConservationAuditor::AckConservationAuditor(
    const AuditConfig *cfg, const OpTraceIndex *index,
    const OpTable *shared)
    : Auditor("ack_conservation", cfg, index, shared)
{
}

const KindSet AckConservationAuditor::kinds =
    kindSet({EventKind::AckReceived, EventKind::ClientOpBegin,
             EventKind::ClientOpEnd});

void
AckConservationAuditor::check(const Record &rec,
                              const OpLedger::Applied &ap)
{
    rules(rec.kind, rec, ap);
}

[[gnu::always_inline]] inline void
AckConservationAuditor::rules(EventKind kind, const Record &rec,
                              const OpLedger::Applied &ap)
{
    if (kind == EventKind::AckReceived &&
        ackType(rec.aux) == net::MsgType::ACK_P_SC) {
        std::int32_t sender = ackSender(rec.aux);
        ScopeAcks &sa = scopeAcks_[static_cast<std::uint64_t>(rec.a0)];
        if (sender >= 0) {
            if (hasNode(sa.senders, sender)) [[unlikely]]
                violateRaw("A2-duplicate-scope-ack", rec.when,
                           "duplicate [ACK_P]sc from node " +
                               std::to_string(sender) + " for scope " +
                               std::to_string(rec.a0),
                           "");
            sa.senders |= nodeBit(sender);
        }
        return;
    }

    if (ap.newOp)
        ++opsAudited_;

    if (kind == EventKind::ClientOpEnd &&
        opType(rec.aux) == OpType::PersistSc) {
        ScopeAcks &sa = scopeAcks_[static_cast<std::uint64_t>(rec.a0)];
        sa.completed = true;
        sa.endedAt = rec.when;
        return;
    }

    if (kind != EventKind::AckReceived)
        return;

    if (!ap.op || !ap.op->fanout) [[unlikely]] {
        violate("A1-orphan-ack", rec.when, ap.id,
                "ACK received for a write that never fanned out");
        return;
    }
    if (ap.duplicateAck) [[unlikely]]
        violate("A2-duplicate-ack", rec.when, ap.id,
                "duplicate ACK (same family and sender) from node " +
                    std::to_string(ackSender(rec.aux)));
}

void
AckConservationAuditor::finish()
{
    forEachOp([&](const kv::WriteId &id, const OpLedger::OpState &st) {
        if (!st.fanout)
            return;
        // Exactly N-1 consistency-family ACKs (followers answer with
        // the family even when they cut the INV as obsolete).
        const PersistModel m = cfg().model;
        const int consistency = check::consistencyAcks(m, st);
        if (consistency != needed())
            violate("A3-consistency-acks-unbalanced", 0, id,
                    std::to_string(consistency) + "/" +
                        std::to_string(needed()) +
                        " consistency-family ACKs at quiescence");
        // Synch's combined ACKs, its persistency ACKs too, were
        // balanced above.
        if (simproto::tracksPersistPerWrite(m) &&
            simproto::usesSplitAcks(m) && st.acksP != needed())
            violate("A3-persist-acks-unbalanced", 0, id,
                    std::to_string(st.acksP) + "/" +
                        std::to_string(needed()) +
                        " ACK_Ps at quiescence");
    });
    scopeAcks_.forEach([&](std::uint64_t scope, const ScopeAcks &sa) {
        if (!sa.completed)
            return;
        const int got = std::popcount(sa.senders);
        if (got != needed())
            violateRaw("A4-scope-acks-unbalanced", sa.endedAt,
                       "[PERSIST]sc for scope " +
                           std::to_string(scope) + " completed with " +
                           std::to_string(got) + "/" +
                           std::to_string(needed()) + " [ACK_P]sc",
                       "");
    });
}

// ---------------------------------------------------------------------
// FifoWatchdog
// ---------------------------------------------------------------------

FifoWatchdog::FifoWatchdog(const AuditConfig *cfg,
                           const OpTraceIndex *index)
    : Auditor("fifo", cfg, index, nullptr)
{
}

void
FifoWatchdog::onRecord(const Record &rec)
{
    rules(rec.kind, rec);
}

std::string
FifoWatchdog::renderHistory(const NodeState &st) const
{
    std::ostringstream os;
    os << "recent FIFO activity on this node:\n";
    // The history is a bounded ring; start at the oldest entry.
    std::size_t n = st.historyLen;
    std::size_t start = (n == historyPerNode) ? st.historyNext : 0;
    for (std::size_t i = 0; i < n; ++i)
        os << "  " << renderRecord(st.history[(start + i) % n])
           << '\n';
    return os.str();
}

const KindSet FifoWatchdog::kinds =
    kindSet({EventKind::FifoDepth, EventKind::VfifoSkipped});

void
FifoWatchdog::check(const Record &rec, const OpLedger::Applied &)
{
    rules(rec.kind, rec);
}

[[gnu::always_inline]] inline void
FifoWatchdog::rules(EventKind kind, const Record &rec)
{
    if (kind != EventKind::FifoDepth && kind != EventKind::VfifoSkipped)
        return;

    MINOS_ASSERT(rec.node >= 0, "FIFO record without a node");
    const auto node = static_cast<std::size_t>(rec.node);
    if (node >= nodes_.size())
        nodes_.resize(node + 1);
    NodeState &st = nodes_[node];
    st.history[st.historyNext] = rec;
    st.historyNext = (st.historyNext + 1) % historyPerNode;
    if (st.historyLen < historyPerNode)
        ++st.historyLen;

    if (kind == EventKind::VfifoSkipped) {
        // Drains walk the vFIFO in enqueue order, so skipped entry ids
        // are strictly increasing per node.
        if (rec.a0 <= st.lastSkipId) [[unlikely]]
            violateRaw("F3-skip-order", rec.when,
                       "vFIFO skipped entry " + std::to_string(rec.a0) +
                           " after entry " +
                           std::to_string(st.lastSkipId),
                       renderHistory(st));
        st.lastSkipId = rec.a0;
        return;
    }

    ++opsAudited_;
    int fifo = (rec.a0 == 0) ? 0 : 1;
    std::int64_t depth = rec.a1;
    int cap = (fifo == 0) ? cfg().vfifoCap : cfg().dfifoCap;
    const char *name = (fifo == 0) ? "vFIFO" : "dFIFO";
    // Samples are taken just after each push, so depth is at least one
    // and, with a bound configured, never beyond it.
    if (depth < 1 || (cap > 0 && depth > cap)) [[unlikely]]
        violateRaw("F1-depth-out-of-bounds", rec.when,
                   std::string(name) + " depth " +
                       std::to_string(depth) + " outside [1, " +
                       (cap > 0 ? std::to_string(cap) : "inf") +
                       "] at node " + std::to_string(rec.node),
                   renderHistory(st));
    std::int64_t last = st.lastDepth[fifo];
    if (last >= 0 && depth > last + 1) [[unlikely]]
        violateRaw("F2-depth-jump", rec.when,
                   std::string(name) + " depth jumped " +
                       std::to_string(last) + " -> " +
                       std::to_string(depth) +
                       " across one push at node " +
                       std::to_string(rec.node),
                   renderHistory(st));
    st.lastDepth[fifo] = depth;
}

// ---------------------------------------------------------------------
// AuditBundle
// ---------------------------------------------------------------------

namespace {

/** Where AuditBundle::onRecord sends a record, by its kind. */
enum Route : std::uint8_t
{
    toTable = 1,
    toConsistency = 2,
    toPersistency = 4,
    toAcks = 8,
    toFifo = 16,
};

/** The route of @p kind, from opKeyedKinds and each auditor's declared
 *  kinds. */
constexpr std::uint8_t
routeOf(EventKind kind)
{
    const auto to = [kind](KindSet set, Route route) {
        return inKinds(set, kind) ? route : 0;
    };
    return static_cast<std::uint8_t>(
        to(opKeyedKinds, toTable) |
        to(ConsistencyAuditor::kinds, toConsistency) |
        to(PersistencyAuditor::kinds, toPersistency) |
        to(AckConservationAuditor::kinds, toAcks) |
        to(FifoWatchdog::kinds, toFifo));
}

} // namespace

AuditBundle::AuditBundle()
    : table_(&cfg_), consistency_(&cfg_, nullptr, &table_),
      persistency_(&cfg_, nullptr, &table_),
      acks_(&cfg_, nullptr, &table_), fifo_(&cfg_, nullptr)
{
}

AuditBundle::~AuditBundle() = default;

void
AuditBundle::configure(const AuditConfig &cfg)
{
    cfg_ = cfg;
}

void
AuditBundle::attach(FlightRecorder &rec)
{
    if (attached_ == &rec)
        return;
    MINOS_ASSERT(!attached_,
                 "AuditBundle is already attached to a recorder");
    attached_ = &rec;
    rec.addSink(this);
}

void
AuditBundle::detach()
{
    if (!attached_)
        return;
    attached_->removeSink(this);
    attached_ = nullptr;
}

template <EventKind K>
void
AuditBundle::route(const Record &rec)
{
    constexpr std::uint8_t to = routeOf(K);
    if constexpr ((to & toFifo) != 0)
        fifo_.rules(K, rec);
    if constexpr ((to & toTable) != 0) {
        // Indexed before the rules run, so a violation's rendered trace
        // includes the triggering event.
        const OpLedger::Applied ap = table_.apply(K, rec);
        if constexpr ((to & toConsistency) != 0)
            consistency_.rules(K, rec, ap);
        if constexpr ((to & toPersistency) != 0)
            persistency_.rules(K, rec, ap);
        if constexpr ((to & toAcks) != 0)
            acks_.rules(K, rec, ap);
        if constexpr (inKinds(foldedKinds, K))
            table_.settle(ap);
    }
}

void
AuditBundle::onRecord(const Record &rec)
{
    switch (rec.kind) {
      case EventKind::InvFanout:
        return route<EventKind::InvFanout>(rec);
      case EventKind::InvApplied:
        return route<EventKind::InvApplied>(rec);
      case EventKind::InvObsolete:
        return route<EventKind::InvObsolete>(rec);
      case EventKind::RdLockReleased:
        return route<EventKind::RdLockReleased>(rec);
      case EventKind::SnicBroadcastInv:
        return route<EventKind::SnicBroadcastInv>(rec);
      case EventKind::FollowerEnqueued:
        return route<EventKind::FollowerEnqueued>(rec);
      case EventKind::VfifoSkipped:
        return route<EventKind::VfifoSkipped>(rec);
      case EventKind::FifoDepth:
        return route<EventKind::FifoDepth>(rec);
      case EventKind::SpanBegin:
        return route<EventKind::SpanBegin>(rec);
      case EventKind::SpanEnd:
        return route<EventKind::SpanEnd>(rec);
      case EventKind::AckReceived:
        return route<EventKind::AckReceived>(rec);
      case EventKind::PersistDone:
        return route<EventKind::PersistDone>(rec);
      case EventKind::ValSent:
        return route<EventKind::ValSent>(rec);
      case EventKind::ClientOpBegin:
        return route<EventKind::ClientOpBegin>(rec);
      case EventKind::ClientOpEnd:
        return route<EventKind::ClientOpEnd>(rec);
      case EventKind::GlbRaised:
        return route<EventKind::GlbRaised>(rec);
      case EventKind::ScopeMark:
        return route<EventKind::ScopeMark>(rec);
      case EventKind::AckSent:
        return route<EventKind::AckSent>(rec);
    }
}

void
AuditBundle::finish()
{
    if (finished_)
        return;
    finished_ = true;
    consistency_.finish();
    persistency_.finish();
    acks_.finish();
    fifo_.finish();
}

std::vector<const Auditor *>
AuditBundle::auditors() const
{
    return {&consistency_, &persistency_, &acks_, &fifo_};
}

std::uint64_t
AuditBundle::violationCount() const
{
    std::uint64_t total = 0;
    for (const Auditor *a : auditors())
        total += a->violationCount();
    return total;
}

std::uint64_t
AuditBundle::opsAudited() const
{
    return consistency_.opsAudited();
}

std::string
AuditBundle::report(std::size_t maxViolations) const
{
    std::ostringstream os;
    std::size_t shown = 0;
    for (const Auditor *a : auditors()) {
        for (const AuditViolation &v : a->violations()) {
            if (shown == maxViolations) {
                os << "... ("
                   << violationCount() - static_cast<std::uint64_t>(
                                             shown)
                   << " more violations)\n";
                return os.str();
            }
            os << "[" << a->name() << "] " << v.rule << " at "
               << v.when << "ns: " << v.detail << '\n';
            if (!v.trace.empty())
                os << v.trace;
            ++shown;
        }
    }
    return os.str();
}

void
AuditBundle::registerInto(MetricsRegistry &reg) const
{
    for (const Auditor *a : auditors())
        a->registerInto(reg);
    reg.counter("audit.ops_indexed",
                static_cast<std::uint64_t>(table_.ops()));
    reg.counter("audit.trace_records_peak", table_.recordsPeak());
    reg.counter("audit.ops_full_peak", table_.fullPeak());
}

} // namespace minos::obs
