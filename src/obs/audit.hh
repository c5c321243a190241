/**
 * @file
 * Online protocol auditors: streaming invariant checks over the flight
 * recorder's event stream (paper §VI, applied to full-scale runs).
 *
 * The model checker (check/checker.hh) proves the Table I conditions on
 * a 3-node abstract model; these auditors watch the *real* engines via
 * the RecordSink bus, so every simulated run of MINOS-B and MINOS-O
 * continuously self-checks consistency/persistency ordering:
 *
 *  - ConsistencyAuditor  — Table I conds. 2b/2c: glb_volatileTS never
 *    advances past a write (and no consistency VAL is sent, and no
 *    RDLock owned by it is released, and no read observes it) before
 *    all its consistency ACKs are in.
 *  - PersistencyAuditor  — per-model persistency rules for all five of
 *    Synch/Strict/REnf/Event/Scope (conds. 3a/3b): no persistency ACK
 *    before the sender is durable, no persistency VAL or durable-glb
 *    advance before all ACK_Ps, REnf/Synch reads only observe
 *    durable-everywhere records, [PERSIST]sc acknowledgments imply the
 *    whole scope flushed, and every applied write is durable on every
 *    replica by quiescence.
 *  - AckConservationAuditor — every INV fan-out is answered by exactly
 *    N-1 distinct ACKs per family (or obsolete cuts); no duplicate or
 *    orphan ACKs.
 *  - FifoWatchdog        — vFIFO/dFIFO occupancy samples stay within
 *    the configured bounds and grow at most one entry per push.
 *
 * Every violation carries the rendered per-op causal timeline from the
 * op trace (obs/optrace.hh), not just a predicate name. Under an
 * AuditBundle the four share one op table (OpTable): a record is
 * folded and indexed once, then each auditor's rules check it. Auditors
 * never feed back into the simulation: they only observe records built
 * from timestamps the engines already took, so attaching them cannot
 * perturb simulated results.
 */

#ifndef MINOS_OBS_AUDIT_HH
#define MINOS_OBS_AUDIT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "check/predicates.hh"
#include "obs/optrace.hh"
#include "obs/recorder.hh"
#include "simproto/models.hh"

namespace minos::obs {

class MetricsRegistry;

/** Cluster facts the audit rules depend on. */
struct AuditConfig
{
    int numNodes = 0;
    simproto::PersistModel model = simproto::PersistModel::Synch;
    /** vFIFO/dFIFO capacity bounds (0 = unbounded; B leaves both 0). */
    int vfifoCap = 0;
    int dfifoCap = 0;

    int followers() const { return numNodes - 1; }
};

/** One audit failure, with the offending op's causal history. */
struct AuditViolation
{
    std::string rule;   ///< stable id, e.g. "C2-val-before-acks"
    Tick when = 0;      ///< simulated time of the offending record
    std::string detail; ///< human-readable statement of the breach
    std::string trace;  ///< rendered causal excerpt (may be empty)
};

/**
 * Streaming per-write protocol state of the protocol auditors: digests
 * the record stream into ACK tallies and per-node apply/persist masks,
 * keyed by kv::WriteId. Entries live in a flat WriteId -> slot table
 * (OpSlots) and a chunked array indexed by slot, so a new write costs
 * no allocation of its own. Entries are never retired: the end-of-run
 * rules (P5, A3) read every write the run made. This is the standalone
 * auditors' ledger; the AuditBundle keeps the same state in its
 * OpTable, which compacts it.
 */
class OpLedger
{
  public:
    /** One write: the ACKs received, counted as the coordinators
     *  count them, plus what the rules need beside the counts. */
    struct OpState : check::AckTally
    {
        std::int32_t coordinator = -1;
        bool fanout = false;        ///< INVs left the coordinator
        bool returned = false;      ///< the write returned to its client
        bool endedObsolete = false; ///< write returned as obsolete-cut
        std::uint64_t persistNodes = 0;  ///< nodes with PersistDone
        std::uint64_t obsoleteNodes = 0; ///< nodes that cut the INV
        /** ACK sender masks, by AckTally::Family. */
        std::uint64_t seenAck[numFamilies] = {};

        bool operator==(const OpState &) const = default;
    };

    struct Applied
    {
        OpState *op = nullptr; ///< null when the record is not op-keyed
        kv::WriteId id;
        std::uint32_t slot = OpSlots::none; ///< the write's, if indexed
        bool keyed = false; ///< opIdOf() named a write for the record
        bool newOp = false; ///< this record opened a new ledger entry
        bool duplicateAck = false; ///< this ACK's (family, sender) repeats
    };

    /** Fold one record into the ledger. */
    Applied apply(const Record &rec);

    const OpState *find(const kv::WriteId &id) const;

    std::size_t ops() const { return ops_.size(); }

    /** Visit every entry, in the order the writes were admitted. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint32_t i = 0; i < ops_.size(); ++i)
            fn(slots_.id(i), ops_[i]);
    }

  private:
    OpSlots slots_;
    ChunkedArray<OpState> ops_; ///< by slot
};

/**
 * The AuditBundle's one op table: a write's ledger state and its trace
 * header sit in one entry under one OpSlots slot. apply() folds a
 * record as OpLedger::apply does and indexes it as OpTraceIndex::add
 * does.
 *
 * Every write has a slot, in admission order, but only the writes that
 * hold a full entry (about a thousand at a time on a healthy run) are
 * found per record: a second index, over the entries alone, maps a
 * write straight to its entry. The entry holds the write's id and
 * slot: the state the rules read, then the id, trace header and stage,
 * 120 bytes. A memo of the entries found last, 256 cells
 * of 4 bytes, sits in front of that index: a cell hits when its entry
 * holds the record's write. So a keyed record costs one memo cell (or,
 * on a miss, a probe of the small index), the entry, and its trace
 * chunk. Only the first record of a write, or a late one for
 * a stub, probes the slots of every write.
 *
 * Traces are kept in a recycle window: settle() marks a write
 * quiescent once nothing more is owed for it, and its records go back
 * to the arena when recycleWindow later writes are quiescent too. A
 * record for a recycled write puts it back in the window, so late
 * records are kept for a while as well.
 *
 * A write that leaves the window *clean* is compacted to a stub: its
 * WriteId, its trace's total and recycled counts and the nodes that
 * cut it as obsolete. Clean means its state is exactly the one the
 * config, its id and those nodes rebuild (cleanState): fanned out and
 * returned, every ACK family the model uses at N-1 ACKs from the
 * follower set, and durable on every node that did not cut it. A late
 * record on a stub rebuilds the entry exactly. Other writes (a
 * coordinator's own obsolete cut, a mutant's extra or missing ACK)
 * keep their entries. A clean write passes P5 and A3, so the
 * end-of-run rules read only the entries (forEachFull).
 */
class OpTable
{
  public:
    /** Quiescent writes whose records are kept. */
    static constexpr std::size_t recycleWindow = 1024;
    /** Records kept per op trace (the rest are counted). */
    static constexpr std::size_t maxEventsPerOp = 48;

    explicit OpTable(const AuditConfig *cfg);

    /** State of the admitted write @p id, or null; a stub's state is
     *  rebuilt into @p scratch. */
    const OpLedger::OpState *find(const kv::WriteId &id,
                                  OpLedger::OpState &scratch) const;

    /** Visit every admitted write that is not a stub, in the order
     *  the writes were admitted. */
    template <typename Fn>
    void
    forEachFull(Fn &&fn) const
    {
        for (std::uint32_t s = 0; s < slots_.slots(); ++s) {
            if (!heads_[s].isEntry())
                continue;
            const Entry &e = entries_[heads_[s].entryOrCuts];
            if (e.admitted)
                fn(slots_.id(s), e.op);
        }
    }

    /** For <Lin, Scope>'s P4: the state of the admitted write that
     *  was indexed in @p slot, in a slot moveToEnd() left behind too,
     *  and its id in @p id; null when it is not admitted, or a stub,
     *  which is durable or cut as obsolete on every node. */
    const OpLedger::OpState *scopedOp(std::uint32_t slot,
                                      kv::WriteId &id) const;

    /** The causal timeline of @p id, as OpTraceIndex::render. */
    std::string render(const kv::WriteId &id) const;

    /** Distinct writes seen. */
    std::size_t ops() const { return slots_.size(); }

    /** True when @p id is held as a stub. */
    bool
    compacted(const kv::WriteId &id) const
    {
        const std::uint32_t slot = slots_.find(id);
        return slot != OpSlots::none && heads_[slot].isStub();
    }

    /** Trace records held at once, at most. */
    std::uint64_t recordsPeak() const { return arena_.recordsPeak(); }

    /** Full entries held now, and at most at once. */
    std::uint64_t fullOps() const { return fullOps_; }
    std::uint64_t fullPeak() const { return fullPeak_; }

  private:
    /** The bundle's routes (audit.cc) are the one caller of apply()
     *  and settle(). */
    friend class AuditBundle;

    /** Fold @p rec, of kind @p kind, into its write's state and index
     *  it. */
    inline OpLedger::Applied apply(EventKind kind, const Record &rec);

    /** After the rules ran on @p ap, the last record applied: a write
     *  with nothing more owed enters the recycle window (once). */
    inline void settle(const OpLedger::Applied &ap);

    enum class Stage : std::uint8_t
    {
        Live,     ///< not yet quiescent
        Windowed, ///< quiescent, records kept
        Recycled, ///< records returned to the arena
    };

    /** A write's full state: what the rules read, then the table's. */
    struct Entry
    {
        OpLedger::OpState op;
        kv::WriteId id;
        OpTrace trace;
        /** The write's slot; in a free entry, the next free one. */
        std::uint32_t slot = OpSlots::none;
        bool admitted = false; ///< a ClientOpBegin opened its state
        Stage stage = Stage::Live;
    };

    /** Per slot: the write's entry, or its stub. */
    struct Head
    {
        static constexpr std::uint32_t noEntry = ~std::uint32_t{0};

        std::uint16_t stubTotal = 0;    ///< a stub's trace total; 0: none
        std::uint16_t stubRecycled = 0; ///< a stub's recycled records
        /** A stub's obsolete cuts (node mask); else the entry, or
         *  noEntry in a slot moveToEnd() left behind. */
        std::uint32_t entryOrCuts = noEntry;

        bool isStub() const { return stubTotal != 0; }
        bool isEntry() const { return !isStub() && entryOrCuts != noEntry; }
    };

    static constexpr std::size_t memoCells = 256;

    /** The memo cell of @p id. */
    static std::size_t
    memoCell(const kv::WriteId &id)
    {
        return static_cast<std::size_t>(
            ((id.key ^ id.ts) * 0x9E3779B97F4A7C15ull) >> 56);
    }
    static_assert(memoCells == 256, "memoCell() keeps the top 8 bits");

    /** The entry of @p id, which the memo does not hold: found in the
     *  index of entries, or added. */
    std::uint32_t locate(const kv::WriteId &id);
    /** The entry of @p id, a write with none yet, new or a stub (its
     *  state rebuilt); @p h is its hash. */
    std::uint32_t addEntry(const kv::WriteId &id, std::uint32_t h);
    /** Enter the write of entry @p at in the recycle window. */
    void quiesce(std::uint32_t at);
    /** Recycle the records of the write of entry @p at; compact it if
     *  clean. */
    void retire(std::uint32_t at);
    /** The state of a clean write @p id that the nodes in @p cuts cut
     *  as obsolete. */
    OpLedger::OpState cleanState(const kv::WriteId &id,
                                 std::uint64_t cuts) const;
    bool quiescent(const OpLedger::OpState &st) const;
    std::uint64_t allNodes() const;

    const AuditConfig *cfg_;
    OpSlots slots_;
    ChunkedArray<Head> heads_; ///< by slot
    ChunkedArray<Entry> entries_;
    /** Write -> entry, for the writes that hold one. */
    SlotIndex live_;
    /** The entries found last, by their writes' memoCell(), or
     *  Head::noEntry: a record's write is usually one of the few
     *  written to just before. */
    std::array<std::uint32_t, memoCells> memo_;
    /** Free entries, a stack linked through Entry::slot. */
    std::uint32_t freeEntry_ = Head::noEntry;
    std::uint32_t applied_ = 0; ///< entry of apply()'s last keyed record
    std::uint64_t fullOps_ = 0;
    std::uint64_t fullPeak_ = 0;
    TraceArena arena_;
    /** Ring of the last recycleWindow quiescent writes' entries, oldest
     *  at windowNext_. */
    std::vector<std::uint32_t> window_;
    std::size_t windowNext_ = 0;
};

/**
 * Per-scope audit state, one T per scope, kept for the whole run. A
 * scope is filed under its [PERSIST]sc's identity (kv::WriteId::ofScope)
 * in an OpSlots table beside a chunked array of T: a new scope costs no
 * heap node of its own, and a walk visits the scopes in the order they
 * were first seen.
 */
template <typename T>
class ScopeTable
{
  public:
    /** The entry of @p scope, value-initialized when first seen. */
    T &
    operator[](std::uint64_t scope)
    {
        bool added = false;
        const std::uint32_t slot =
            slots_.insert(kv::WriteId::ofScope(scope), added);
        if (added)
            values_.emplace_back();
        return values_[slot];
    }

    /** The entry of @p scope, or null. */
    const T *
    find(std::uint64_t scope) const
    {
        const std::uint32_t slot = slots_.find(kv::WriteId::ofScope(scope));
        return slot == OpSlots::none ? nullptr : &values_[slot];
    }

    /** Call @p fn(scope, entry) on every entry, in first-seen order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint32_t slot = 0; slot < slots_.slots(); ++slot)
            fn(slots_.id(slot).key, values_[slot]);
    }

  private:
    OpSlots slots_;
    ChunkedArray<T> values_;
};

/**
 * <Lin, Scope>'s scope lists, kept for the whole run: per scope id, the
 * 4-byte slots of the writes marked into it, in mark order (a write
 * marked twice is listed twice). Each list is a chain of chunks in one
 * arena, headed by an entry of a ScopeTable.
 */
class ScopeChains
{
  public:
    /** Append @p slot to the list of @p scope. */
    void append(std::uint32_t scope, std::uint32_t slot);

    /** Call @p fn(slot) on the list of @p scope, in order. */
    template <typename Fn>
    void
    forEach(std::uint64_t scope, Fn &&fn) const
    {
        const Chain *c = chains_.find(scope);
        if (!c)
            return;
        std::uint32_t left = c->len;
        for (std::uint32_t k = c->head; left > 0; k = chunks_[k].next) {
            for (std::uint32_t i = 0; i < chunkSlots && left > 0;
                 ++i, --left)
                fn(chunks_[k].slots[i]);
        }
    }

  private:
    static constexpr std::uint32_t chunkSlots = 5;

    struct Chunk
    {
        std::array<std::uint32_t, chunkSlots> slots;
        std::uint32_t next;
    };

    struct Chain
    {
        std::uint32_t head; ///< first chunk
        std::uint32_t tail; ///< last chunk
        std::uint32_t len;  ///< slots listed
    };

    ScopeTable<Chain> chains_;
    ChunkedArray<Chunk> chunks_;
};

/**
 * Base class: rule set + violation reporting + metrics publication.
 *
 * An auditor's rules run as check(rec, applied), after the record has
 * been folded into the state the auditor reads. Each auditor declares,
 * as its static `kinds`, the record kinds its rules read: check() does
 * nothing on any other kind. AuditBundle folds each record once into
 * its shared OpTable and calls check() on the auditors whose kinds hold
 * the record's; onRecord() is the standalone path, for an auditor used
 * as a sink of its own: it folds every record into the auditor's
 * private ledger, then checks, and renders traces from a caller's
 * OpTraceIndex.
 */
class Auditor : public RecordSink
{
  public:
    const char *name() const { return name_; }

    /** Standalone path: fold into the private ledger, then check. */
    void onRecord(const Record &rec) override;

    /** Run the rules on @p rec, already folded into the ledger. */
    virtual void check(const Record &rec,
                       const OpLedger::Applied &ap) = 0;

    /** End-of-run (quiescence) checks; called once by AuditBundle. */
    virtual void finish() {}

    /** Stored violations (capped; violationCount() keeps counting). */
    const std::vector<AuditViolation> &
    violations() const
    {
        return violations_;
    }

    std::uint64_t violationCount() const { return violationCount_; }

    /** Units audited: distinct writes (protocol), samples (FIFO). */
    std::uint64_t opsAudited() const { return opsAudited_; }

    /** Publish audit.<name>.{violations,ops_audited} counters. */
    void registerInto(MetricsRegistry &reg) const;

  protected:
    /** @param shared the bundle's op table, or null for a private
     *  ledger and traces from @p index */
    Auditor(const char *name, const AuditConfig *cfg,
            const OpTraceIndex *index, const OpTable *shared);

    /** Violations stored per auditor; beyond this, only counted. */
    static constexpr std::size_t maxStoredViolations = 64;

    const AuditConfig &cfg() const { return *cfg_; }
    int needed() const { return cfg_->followers(); }

    /** The bundle's op table, or null on the standalone path. */
    const OpTable *shared() const { return shared_; }

    /** The standalone path's state of the admitted write @p id, or
     *  null. */
    const OpLedger::OpState *
    ownOp(const kv::WriteId &id) const
    {
        return own_.find(id);
    }

    /** Visit, in admission order, every write the end-of-run rules
     *  must read: all of them, less the bundle's clean stubs. */
    template <typename Fn>
    void
    forEachOp(Fn &&fn) const
    {
        if (shared_)
            shared_->forEachFull(fn);
        else
            own_.forEach(fn);
    }

    /** Report a violation with the op's rendered causal trace. */
    void violate(const char *rule, Tick when, const kv::WriteId &id,
                 std::string detail);

    /** Report a violation with a caller-supplied trace excerpt. */
    void violateRaw(const char *rule, Tick when, std::string detail,
                    std::string trace);

    std::uint64_t opsAudited_ = 0;

  private:
    const char *name_;
    const AuditConfig *cfg_;
    const OpTraceIndex *index_; ///< the standalone path's traces
    const OpTable *shared_;     ///< the bundle's table, or null
    OpLedger own_;              ///< the standalone path's ledger
    std::vector<AuditViolation> violations_;
    std::uint64_t violationCount_ = 0;
};

/** Table I conds. 2b/2c on the live event stream. */
class ConsistencyAuditor : public Auditor
{
  public:
    /** The kinds check() reads (audit.cc, beside the rules). */
    static const KindSet kinds;

    ConsistencyAuditor(const AuditConfig *cfg, const OpTraceIndex *index,
                       const OpTable *shared = nullptr);
    void check(const Record &rec, const OpLedger::Applied &ap) override;

  private:
    friend class AuditBundle;
    /** check() on @p rec, of kind @p kind: AuditBundle's route of a
     *  kind passes it as a constant, so the other kinds' rules fold
     *  away. */
    inline void rules(EventKind kind, const Record &rec,
                      const OpLedger::Applied &ap);
    bool gateReached(const OpLedger::OpState &st) const;
};

/** Per-model persistency rules (Table I conds. 3a/3b). */
class PersistencyAuditor : public Auditor
{
  public:
    /** The kinds check() reads (audit.cc, beside the rules). */
    static const KindSet kinds;

    PersistencyAuditor(const AuditConfig *cfg, const OpTraceIndex *index,
                       const OpTable *shared = nullptr);
    void check(const Record &rec, const OpLedger::Applied &ap) override;
    void finish() override;

  private:
    friend class AuditBundle;
    /** check() on @p rec, of kind @p kind: AuditBundle's route of a
     *  kind passes it as a constant, so the other kinds' rules fold
     *  away. */
    inline void rules(EventKind kind, const Record &rec,
                      const OpLedger::Applied &ap);
    /** Every persistency ACK of the write is in and its coordinator
     *  has persisted it (P2, P3 and P6 gate on this). */
    bool persistGateReached(const OpLedger::OpState &st) const;
    /** P4: a follower's [ACK_P]sc, @p rec, certifies the scope. */
    void checkScopeAck(const Record &rec);
    /** The writes marked into each scope (<Lin, Scope>): slots of the
     *  bundle's op table, or of marked_ on the standalone path. */
    ScopeChains scopes_;
    OpSlots marked_;
};

/** INV/ACK bookkeeping conservation. */
class AckConservationAuditor : public Auditor
{
  public:
    /** The kinds check() reads (audit.cc, beside the rules). */
    static const KindSet kinds;

    AckConservationAuditor(const AuditConfig *cfg,
                           const OpTraceIndex *index,
                           const OpTable *shared = nullptr);
    void check(const Record &rec, const OpLedger::Applied &ap) override;
    void finish() override;

  private:
    friend class AuditBundle;
    /** check() on @p rec, of kind @p kind: AuditBundle's route of a
     *  kind passes it as a constant, so the other kinds' rules fold
     *  away. */
    inline void rules(EventKind kind, const Record &rec,
                      const OpLedger::Applied &ap);
    struct ScopeAcks
    {
        std::uint64_t senders = 0;
        bool completed = false; ///< [PERSIST]sc returned to the client
        Tick endedAt = 0;
    };
    ScopeTable<ScopeAcks> scopeAcks_;
};

/** vFIFO/dFIFO occupancy sanity. */
class FifoWatchdog : public Auditor
{
  public:
    /** The kinds check() reads (audit.cc, beside the rules). */
    static const KindSet kinds;

    FifoWatchdog(const AuditConfig *cfg, const OpTraceIndex *index);
    /** Standalone path: the rules read no ledger, so none is folded. */
    void onRecord(const Record &rec) override;
    void check(const Record &rec, const OpLedger::Applied &ap) override;

  private:
    friend class AuditBundle;
    /** check() on @p rec, of kind @p kind: AuditBundle's route of a
     *  kind passes it as a constant, so the other kinds' rules fold
     *  away. */
    inline void rules(EventKind kind, const Record &rec);
    /** Last few FIFO records per node, rendered into violations. */
    static constexpr std::size_t historyPerNode = 8;

    struct NodeState
    {
        std::int64_t lastDepth[2] = {-1, -1}; ///< [vFIFO, dFIFO]
        std::int64_t lastSkipId = -1;
        std::array<Record, historyPerNode> history; ///< bounded ring
        std::size_t historyLen = 0;
        std::size_t historyNext = 0;
    };

    std::string renderHistory(const NodeState &st) const;
    std::vector<NodeState> nodes_; ///< by node id
};

/**
 * The default audit harness: one OpTable and all four auditors behind a
 * single RecordSink, attachable to a FlightRecorder in one call. Each
 * record is routed once, by its kind: a kind opIdOf() can key is folded
 * into the table and indexed, then the auditors whose declared kinds
 * hold it check it. A kind that no rule reads and no write owns (phase
 * spans, vFIFO enqueues) costs the route alone. Engines wire this
 * up from ClusterConfig::audit (the cluster fills in the AuditConfig
 * from its own topology/model, so callers just default-construct a
 * bundle).
 */
class AuditBundle : public RecordSink
{
  public:
    AuditBundle();
    /** Out of line, so that an includer does not carry its own copy of
     *  the members' destructors. */
    ~AuditBundle() override;
    /** A declared destructor hides the implicit move, which returning
     *  a bundle by value needs. The auditors point into the bundle, so
     *  only an elided move (of a returned local) is safe. */
    AuditBundle(AuditBundle &&) = default;

    /** Set the cluster facts; must precede the first recorded event. */
    void configure(const AuditConfig &cfg);

    /** Register the bundle as the recorder's sink (once). */
    void attach(FlightRecorder &rec);

    /** Unregister from the recorder (safe to call when detached). */
    void detach();

    void onRecord(const Record &rec) override;

    /** Run end-of-run checks exactly once (later calls no-op). */
    void finish();

    bool clean() const { return violationCount() == 0; }
    std::uint64_t violationCount() const;

    /** Distinct client writes audited. */
    std::uint64_t opsAudited() const;

    /** All stored violations, with traces, ready to print. */
    std::string report(std::size_t maxViolations = 16) const;

    /** Publish audit.* counters for every auditor and the table. */
    void registerInto(MetricsRegistry &reg) const;

    const AuditConfig &config() const { return cfg_; }
    const OpTable &table() const { return table_; }
    const ConsistencyAuditor &consistency() const { return consistency_; }
    const PersistencyAuditor &persistency() const { return persistency_; }
    const AckConservationAuditor &acks() const { return acks_; }
    const FifoWatchdog &fifo() const { return fifo_; }

    /** The four auditors, for uniform iteration. */
    std::vector<const Auditor *> auditors() const;

  private:
    /** What onRecord() does with a record of kind @p K. */
    template <EventKind K>
    void route(const Record &rec);

    AuditConfig cfg_;
    OpTable table_;
    ConsistencyAuditor consistency_;
    PersistencyAuditor persistency_;
    AckConservationAuditor acks_;
    FifoWatchdog fifo_;
    FlightRecorder *attached_ = nullptr;
    bool finished_ = false;
};

} // namespace minos::obs

#endif // MINOS_OBS_AUDIT_HH
