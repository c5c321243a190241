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
 * OpTraceIndex (obs/optrace.hh), not just a predicate name. Under an
 * AuditBundle the four share one ledger and one index: a record is
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
#include <unordered_map>
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
 * Streaming per-write protocol state shared by the protocol auditors:
 * digests the record stream into ACK tallies and per-node apply/persist
 * masks, keyed by kv::WriteId. Entries live in a flat WriteId -> slot
 * table (OpSlots) and a chunked array indexed by slot, so a new write
 * costs no allocation of its own. Entries are never retired: the end-of-run
 * rules (P5, A3) read every write the run made.
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
    };

    struct Applied
    {
        OpState *op = nullptr; ///< null when the record is not op-keyed
        kv::WriteId id;
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
 * Base class: rule set + violation reporting + metrics publication.
 *
 * An auditor's rules run as check(rec, applied), after the record has
 * been folded into the ledger the auditor reads. AuditBundle folds
 * each record once into its shared ledger and calls check() on every
 * auditor; onRecord() is the standalone path, for an auditor used as a
 * sink of its own: it folds into the auditor's private ledger, then
 * checks.
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
    /** @param shared the bundle's ledger, or null for a private one */
    Auditor(const char *name, const AuditConfig *cfg,
            const OpTraceIndex *index, const OpLedger *shared);

    /** Violations stored per auditor; beyond this, only counted. */
    static constexpr std::size_t maxStoredViolations = 64;

    const AuditConfig &cfg() const { return *cfg_; }
    int needed() const { return cfg_->followers(); }
    const OpLedger &ledger() const { return *ledger_; }

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
    const OpTraceIndex *index_;
    OpLedger own_;           ///< the standalone path's ledger
    const OpLedger *ledger_; ///< &own_, or the bundle's
    std::vector<AuditViolation> violations_;
    std::uint64_t violationCount_ = 0;
};

/** Table I conds. 2b/2c on the live event stream. */
class ConsistencyAuditor : public Auditor
{
  public:
    ConsistencyAuditor(const AuditConfig *cfg, const OpTraceIndex *index,
                       const OpLedger *shared = nullptr);
    void check(const Record &rec, const OpLedger::Applied &ap) override;

  private:
    bool gateReached(const OpLedger::OpState &st) const;
};

/** Per-model persistency rules (Table I conds. 3a/3b). */
class PersistencyAuditor : public Auditor
{
  public:
    PersistencyAuditor(const AuditConfig *cfg, const OpTraceIndex *index,
                       const OpLedger *shared = nullptr);
    void check(const Record &rec, const OpLedger::Applied &ap) override;
    void finish() override;

  private:
    /** Every persistency ACK of the write is in and its coordinator
     *  has persisted it (P2, P3 and P6 gate on this). */
    bool persistGateReached(const OpLedger::OpState &st) const;
    /** Scope id -> fanned-out writes marked into it (<Lin, Scope>). */
    std::unordered_map<std::uint64_t, std::vector<kv::WriteId>>
        scopeWrites_;
};

/** INV/ACK bookkeeping conservation. */
class AckConservationAuditor : public Auditor
{
  public:
    AckConservationAuditor(const AuditConfig *cfg,
                           const OpTraceIndex *index,
                           const OpLedger *shared = nullptr);
    void check(const Record &rec, const OpLedger::Applied &ap) override;
    void finish() override;

  private:
    struct ScopeAcks
    {
        std::uint64_t senders = 0;
        bool completed = false; ///< [PERSIST]sc returned to the client
        Tick endedAt = 0;
    };
    std::unordered_map<std::uint64_t, ScopeAcks> scopeAcks_;
};

/** vFIFO/dFIFO occupancy sanity. */
class FifoWatchdog : public Auditor
{
  public:
    FifoWatchdog(const AuditConfig *cfg, const OpTraceIndex *index);
    /** Standalone path: the rules read no ledger, so none is folded. */
    void onRecord(const Record &rec) override;
    void check(const Record &rec, const OpLedger::Applied &ap) override;

  private:
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
 * The default audit harness: one ledger, one OpTraceIndex and all four
 * auditors behind a single RecordSink, attachable to a FlightRecorder
 * in one call. Each record is folded once into the shared ledger and
 * indexed once, then every auditor's rules check it. Engines wire this
 * up from ClusterConfig::audit (the cluster fills in the AuditConfig
 * from its own topology/model, so callers just default-construct a
 * bundle).
 */
class AuditBundle : public RecordSink
{
  public:
    AuditBundle();

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

    /** Publish audit.* counters for every auditor and the index. */
    void registerInto(MetricsRegistry &reg) const;

    const AuditConfig &config() const { return cfg_; }
    const OpTraceIndex &index() const { return index_; }
    const ConsistencyAuditor &consistency() const { return consistency_; }
    const PersistencyAuditor &persistency() const { return persistency_; }
    const AckConservationAuditor &acks() const { return acks_; }
    const FifoWatchdog &fifo() const { return fifo_; }

    /** The four auditors, for uniform iteration. */
    std::vector<const Auditor *> auditors() const;

  private:
    /**
     * Nothing more is owed for the write: it fanned out and returned,
     * its consistency ACK family (and per-write persistency family,
     * where the model has one) is complete, and every node made it
     * durable or cut it as obsolete.
     */
    bool quiescent(const OpLedger::OpState &st) const;

    AuditConfig cfg_;
    OpLedger ledger_;
    OpTraceIndex index_;
    ConsistencyAuditor consistency_;
    PersistencyAuditor persistency_;
    AckConservationAuditor acks_;
    FifoWatchdog fifo_;
    FlightRecorder *attached_ = nullptr;
    bool finished_ = false;
};

} // namespace minos::obs

#endif // MINOS_OBS_AUDIT_HH
