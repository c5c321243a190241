/**
 * @file
 * End-to-end tests of the online protocol auditors (obs/audit.hh).
 *
 * Three properties, mirroring how the paper validates its checkers:
 *
 *  1. Soundness on healthy engines: full workload runs of MINOS-B and
 *     MINOS-O under every persistency model audit clean.
 *  2. Sensitivity: each deliberate protocol mutation (ClusterConfig::
 *     MutationHooks) trips the auditor built to catch that class of
 *     bug, and the violation carries a non-empty causal trace.
 *  3. Non-perturbation: attaching the audit bundle leaves the simulated
 *     results bit-identical (auditors observe, they never feed back).
 *
 * Plus unit checks that the ledger files records under the same write
 * as the op traces (both use obs::opIdOf), that the bundle's op table
 * reaches the verdicts the standalone auditors reach on their own
 * ledgers, that an op whose records were recycled still renders an
 * excerpt, that a compacted write rebuilds exactly (a late ACK stays a
 * duplicate, never an orphan) while dirty writes keep their entries,
 * that <Lin, Scope>'s P4 finds every write marked into a scope (stubs
 * and moved slots included), that a kept trace record renders exactly
 * as the record it was packed from, and that the write -> slot table
 * (OpSlots) keeps every write's slot as it grows. Each auditor ignores
 * the record kinds it does not declare (the bundle routes by them), and
 * AuditBundle::report's text is pinned.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "kv/timestamp.hh"
#include "obs/audit.hh"
#include "obs/recorder.hh"
#include "snic/run.hh"

using namespace minos;
using namespace minos::obs;
using namespace minos::simproto;

namespace {

/** Copies the record stream, for replay through other sinks. */
struct StreamCapture : RecordSink
{
    std::vector<Record> records;
    void onRecord(const Record &rec) override { records.push_back(rec); }
};

/** The four auditors on their own: private ledgers, and traces from an
 *  index that keeps every record. */
struct StandaloneAudit
{
    explicit StandaloneAudit(const AuditConfig &config)
        : cfg(config), consistency(&cfg, &index), persistency(&cfg, &index),
          acks(&cfg, &index), fifo(&cfg, &index)
    {
    }

    std::vector<Auditor *>
    auditors()
    {
        return {&consistency, &persistency, &acks, &fifo};
    }

    /** Feed @p records to the index and every auditor, then finish. */
    void
    replay(const std::vector<Record> &records)
    {
        for (const Record &rec : records) {
            index.onRecord(rec);
            for (Auditor *a : auditors())
                a->onRecord(rec);
        }
        for (Auditor *a : auditors())
            a->finish();
    }

    AuditConfig cfg;
    OpTraceIndex index;
    ConsistencyAuditor consistency;
    PersistencyAuditor persistency;
    AckConservationAuditor acks;
    FifoWatchdog fifo;
};

struct AuditRun
{
    FlightRecorder recorder{1 << 15};
    AuditBundle audit;
    StreamCapture stream;
    RunResult result;
};

/** Knobs for one audited run (defaults = a healthy small cluster). */
struct RunOpts
{
    ClusterConfig::MutationHooks mutations{};
    int vfifoEntries = 5;
    /** Slow the durability path (exposes scope-flush races); 0 keeps
     *  the ClusterConfig default. */
    Tick persistNsPerKb = 0;
    int workersPerNode = 2;
    int scopeSize = 10;
    double writeFraction = 0.8;
    int numNodes = 3;
    std::uint64_t numRecords = 16;
    std::uint64_t requestsPerNode = 80;
    std::uint64_t seed = 7;
    /** Copy the record stream into AuditRun::stream. */
    bool capture = false;
};

/** Run a small closed-loop workload with the auditors attached. */
AuditRun
runAudited(bool offload, PersistModel model, const RunOpts &opts = {})
{
    AuditRun run;
    RunSpec spec{.engine = offload ? Engine::O : Engine::B, .model = model};
    ClusterConfig &cfg = spec.cfg;
    cfg.numNodes = opts.numNodes;
    cfg.numRecords = opts.numRecords;
    cfg.vfifoEntries = opts.vfifoEntries;
    if (opts.persistNsPerKb > 0) {
        cfg.persistNsPerKb = opts.persistNsPerKb; // MINOS-B NVM
        cfg.dfifoWriteNs = opts.persistNsPerKb;   // MINOS-O durability
    }
    cfg.trace = &run.recorder;
    cfg.audit = &run.audit;
    cfg.mutations = opts.mutations;
    if (opts.capture)
        run.recorder.addSink(&run.stream);

    DriverConfig &dc = spec.dc;
    dc.requestsPerNode = opts.requestsPerNode;
    dc.workersPerNode = opts.workersPerNode;
    dc.scopeSize = opts.scopeSize;
    dc.ycsb.numRecords = cfg.numRecords;
    dc.ycsb.writeFraction = opts.writeFraction;
    dc.ycsb.seed = opts.seed;

    run.result = simproto::run(spec).result;
    run.audit.finish();
    return run;
}

/** True when some stored violation's rule id starts with @p prefix. */
bool
tripped(const AuditBundle &audit, const std::string &prefix)
{
    for (const Auditor *a : audit.auditors())
        for (const AuditViolation &v : a->violations())
            if (v.rule.rfind(prefix, 0) == 0)
                return true;
    return false;
}

/** Violations as (rule, time, detail), for comparing two audits whose
 *  rendered traces differ by what was recycled. */
std::vector<std::string>
verdicts(const Auditor &a)
{
    std::vector<std::string> out;
    for (const AuditViolation &v : a.violations())
        out.push_back(v.rule + " @" + std::to_string(v.when) + " " +
                      v.detail);
    return out;
}

/** Every stored violation must carry a rendered causal excerpt. */
void
expectTraces(const AuditBundle &audit)
{
    for (const Auditor *a : audit.auditors())
        for (const AuditViolation &v : a->violations())
            EXPECT_FALSE(v.trace.empty())
                << a->name() << " violation of " << v.rule
                << " has no causal trace: " << v.detail;
}

std::string
describe(bool offload, PersistModel model)
{
    return std::string(offload ? "MINOS-O" : "MINOS-B") + "/" +
           std::string(modelName(model));
}

} // namespace

// ---------------------------------------------------------------------
// 1. Soundness: healthy engines audit clean.
// ---------------------------------------------------------------------

class AuditModelTest : public ::testing::TestWithParam<PersistModel>
{
};

TEST_P(AuditModelTest, HealthyBaselineEngineAuditsClean)
{
    AuditRun run = runAudited(/*offload=*/false, GetParam());
    EXPECT_TRUE(run.audit.clean())
        << describe(false, GetParam()) << "\n"
        << run.audit.report();
    EXPECT_GT(run.audit.opsAudited(), 0u);
    EXPECT_GT(run.result.writes, 0u);
}

TEST(AuditScopeIds, ThreeHundredWorkersPerNodeAuditClean)
{
    // Worker w + 256 once took worker w's scope ids, and a worker's
    // 65 536th scope another worker's first: a [PERSIST]sc collided.
    RunOpts opts;
    opts.workersPerNode = 300;
    opts.requestsPerNode = 6000;
    opts.scopeSize = 2;
    opts.writeFraction = 1;
    opts.numRecords = 1000;
    for (bool offload : {false, true}) {
        AuditRun run = runAudited(offload, PersistModel::Scope, opts);
        EXPECT_TRUE(run.audit.clean())
            << describe(offload, PersistModel::Scope) << "\n"
            << run.audit.report();
        EXPECT_EQ(run.result.writes, 3u * 6000u);
    }
}

TEST_P(AuditModelTest, HealthyOffloadEngineAuditsClean)
{
    AuditRun run = runAudited(/*offload=*/true, GetParam());
    EXPECT_TRUE(run.audit.clean())
        << describe(true, GetParam()) << "\n"
        << run.audit.report();
    EXPECT_GT(run.audit.opsAudited(), 0u);
    EXPECT_GT(run.result.writes, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllModels, AuditModelTest,
                         ::testing::ValuesIn(allModels),
                         [](const auto &info) {
                             switch (info.param) {
                               case PersistModel::Synch:
                                 return "Synch";
                               case PersistModel::Strict:
                                 return "Strict";
                               case PersistModel::REnf:
                                 return "REnf";
                               case PersistModel::Event:
                                 return "Event";
                               case PersistModel::Scope:
                                 return "Scope";
                             }
                             return "Unknown";
                         });

TEST(AuditReads, ReadHeavyBaselineRunAuditsClean)
{
    // A read takes the value and its TS the moment it sees the RDLock
    // free, then pays the LLC latency. Taking the TS after that latency
    // instead names a newer write whose INV landed meanwhile, before its
    // consistency ACKs are in (C4). This YCSB-B run hit that window
    // twice in 20 000 ops when the TS was taken late.
    RunOpts opts;
    opts.numNodes = 5;
    opts.numRecords = 1000;
    opts.workersPerNode = 5;
    opts.requestsPerNode = 4000;
    opts.writeFraction = 0.05;
    opts.seed = 1;
    AuditRun run = runAudited(/*offload=*/false, PersistModel::Synch, opts);
    EXPECT_TRUE(run.audit.clean()) << run.audit.report(4);
    EXPECT_FALSE(tripped(run.audit, "C4"));
    EXPECT_GT(run.result.reads, 10 * run.result.writes);
}

// ---------------------------------------------------------------------
// 2. Sensitivity: each seeded mutation trips its auditor.
// ---------------------------------------------------------------------

TEST(AuditSensitivity, EarlyRdLockReleaseTripsConsistencyAuditor)
{
    for (bool offload : {false, true}) {
        SCOPED_TRACE(describe(offload, PersistModel::Synch));
        RunOpts opts;
        opts.mutations.releaseRdLockEarly = true;
        AuditRun run = runAudited(offload, PersistModel::Synch, opts);
        EXPECT_FALSE(run.audit.clean());
        EXPECT_TRUE(tripped(run.audit, "C3"))
            << run.audit.report(4);
        expectTraces(run.audit);
    }
}

TEST(AuditSensitivity, AckBeforePersistTripsPersistencyAuditor)
{
    // Strict has an explicit ACK_P that the mutated follower sends
    // before its dFIFO/NVM persist completes (breaks cond. 3a -> P1).
    for (bool offload : {false, true}) {
        SCOPED_TRACE(describe(offload, PersistModel::Strict));
        RunOpts opts;
        opts.mutations.ackBeforePersist = true;
        AuditRun run = runAudited(offload, PersistModel::Strict, opts);
        EXPECT_FALSE(run.audit.clean());
        EXPECT_TRUE(tripped(run.audit, "P1"))
            << run.audit.report(4);
        expectTraces(run.audit);
    }
}

TEST(AuditSensitivity, AckBeforePersistTripsScopeFlushRule)
{
    // Under <Lin, Scope> the same mutation acknowledges [PERSIST]sc
    // with scope entries still unflushed (breaks the scope rule P4).
    for (bool offload : {false, true}) {
        SCOPED_TRACE(describe(offload, PersistModel::Scope));
        RunOpts opts;
        opts.mutations.ackBeforePersist = true;
        // Slow durability so in-scope writes are genuinely unflushed
        // when the mutated follower acknowledges [PERSIST]sc; at the
        // default NVM speed the background persists win the race and
        // the skipped wait is invisible.
        opts.persistNsPerKb = 60'000;
        AuditRun run = runAudited(offload, PersistModel::Scope, opts);
        EXPECT_FALSE(run.audit.clean());
        EXPECT_TRUE(tripped(run.audit, "P4"))
            << run.audit.report(4);
        expectTraces(run.audit);
    }
}

TEST(AuditSensitivity, ShortPersistencyGateTripsPersistencyAuditor)
{
    // The coordinator fires its persistency gate one ACK_P short, so
    // glb_durableTS rises / VAL_P leaves before all ACK_Ps (P2/P6).
    for (bool offload : {false, true}) {
        SCOPED_TRACE(describe(offload, PersistModel::Strict));
        RunOpts opts;
        opts.mutations.dropOnePersistAck = true;
        AuditRun run = runAudited(offload, PersistModel::Strict, opts);
        EXPECT_FALSE(run.audit.clean());
        EXPECT_TRUE(tripped(run.audit, "P2") ||
                    tripped(run.audit, "P6"))
            << run.audit.report(4);
        expectTraces(run.audit);
    }
}

TEST(AuditSensitivity, DuplicateAckTripsConservationAuditor)
{
    for (bool offload : {false, true}) {
        SCOPED_TRACE(describe(offload, PersistModel::Synch));
        RunOpts opts;
        opts.mutations.duplicateAck = true;
        AuditRun run = runAudited(offload, PersistModel::Synch, opts);
        EXPECT_FALSE(run.audit.clean());
        EXPECT_TRUE(tripped(run.audit, "A2"))
            << run.audit.report(4);
        expectTraces(run.audit);
    }
}

TEST(AuditSensitivity, UncappedVfifoTripsFifoWatchdog)
{
    // MINOS-O only: with the admission bound ignored and a tiny vFIFO,
    // concurrent producers push the occupancy past the cap (F1).
    RunOpts opts;
    opts.mutations.ignoreFifoCap = true;
    opts.vfifoEntries = 1;
    opts.workersPerNode = 4;
    opts.writeFraction = 1.0;
    AuditRun run = runAudited(/*offload=*/true, PersistModel::Synch,
                              opts);
    EXPECT_FALSE(run.audit.clean());
    EXPECT_TRUE(tripped(run.audit, "F1")) << run.audit.report(4);
    expectTraces(run.audit);
}

TEST(AuditReport, RendersRuleDetailAndCausalTrace)
{
    // The report a failing audit prints: one line per violation, rule
    // and detail, then the write's causal trace; past the cap, a count.
    RunOpts opts;
    opts.mutations.releaseRdLockEarly = true;
    opts.numNodes = 2;
    opts.workersPerNode = 1;
    opts.requestsPerNode = 2;
    opts.writeFraction = 1;
    AuditRun run = runAudited(/*offload=*/false, PersistModel::Synch, opts);
    ASSERT_EQ(run.audit.violationCount(), 4u);
    EXPECT_EQ(run.audit.report(2),
              "[consistency] C3-rdlock-released-early at 1184ns: RDLock "
              "released at node 0 before the consistency gate (0/1 ACKs)\n"
              "op key=6 ts=<0,0> causal trace (3 events):\n"
              "  600ns [protocol] node 0: write begin key=6 ts=<0,0>\n"
              "  934ns [message] node 0: INV fan-out key=6 ts=<0,0>\n"
              "  1184ns [lock] node 0: RDLock released key=6 owner=<0,0>\n"
              "[consistency] C3-rdlock-released-early at 1184ns: RDLock "
              "released at node 1 before the consistency gate (0/1 ACKs)\n"
              "op key=4 ts=<1,0> causal trace (3 events):\n"
              "  600ns [protocol] node 1: write begin key=4 ts=<1,0>\n"
              "  934ns [message] node 1: INV fan-out key=4 ts=<1,0>\n"
              "  1184ns [lock] node 1: RDLock released key=4 owner=<1,0>\n"
              "... (2 more violations)\n");
}

// ---------------------------------------------------------------------
// 3. Non-perturbation: auditors observe, they never feed back.
// ---------------------------------------------------------------------

namespace {

struct Fingerprint
{
    std::uint64_t eventsExecuted = 0;
    Tick completionTick = 0;
    std::uint64_t writeDigest = 0;
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;

    bool operator==(const Fingerprint &) const = default;
};

Fingerprint
fingerprint(bool offload, bool audited)
{
    FlightRecorder recorder{1 << 15};
    AuditBundle audit;
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 3;
    cfg.numRecords = 16;
    cfg.trace = &recorder;
    if (audited)
        cfg.audit = &audit;

    DriverConfig dc;
    dc.requestsPerNode = 120;
    dc.workersPerNode = 2;
    dc.ycsb.numRecords = cfg.numRecords;
    dc.ycsb.writeFraction = 0.8;
    dc.ycsb.seed = 11;

    const Engine engine = offload ? Engine::O : Engine::B;
    RunResult res = withCluster(sim, engine, cfg, PersistModel::Strict,
                                optionsFor(engine), [&](auto &cluster) {
                                    return runWorkload(sim, cluster, dc);
                                });
    return {sim.eventsExecuted(), sim.now(), res.writeLat.digest(),
            res.writes, res.reads};
}

} // namespace

TEST(AuditPerturbation, AttachingAuditorsLeavesResultsBitIdentical)
{
    for (bool offload : {false, true}) {
        SCOPED_TRACE(offload ? "MINOS-O" : "MINOS-B");
        EXPECT_TRUE(fingerprint(offload, false) ==
                    fingerprint(offload, true));
    }
}


// ---------------------------------------------------------------------
// 4. The ledgers map records to writes as the op traces do (opIdOf).
// ---------------------------------------------------------------------

TEST(AuditLedger, ScopeMarkReachesItsWritesEntry)
{
    // A ScopeMark carries a0 = (scope << 32) | key: the ledger must file
    // it under the write's (key, TS_WR), not under the packed a0.
    const kv::WriteId id{7, 0x10003};
    const auto ts = static_cast<std::int64_t>(id.ts);
    OpLedger ledger;
    const auto key = static_cast<std::int64_t>(id.key);
    ledger.apply(Record{10, key, ts, 0, Category::Protocol,
                        EventKind::ClientOpBegin,
                        opAux(OpType::Write, false)});
    OpLedger::Applied ap = ledger.apply(
        Record{20, (std::int64_t{5} << 32) | key, ts, 0,
               Category::Protocol, EventKind::ScopeMark, 0});
    EXPECT_TRUE(ap.id == id);
    ASSERT_NE(ap.op, nullptr);
    EXPECT_EQ(ap.op, ledger.find(id));
}

TEST(AuditLedger, BundleMatchesStandaloneAuditors)
{
    // The bundle folds each record once into its op table, which
    // compacts clean writes as they leave the recycle window, and routes
    // each record only to the auditors that declare its kind; each
    // auditor on its own folds every record into a private ledger that
    // keeps every write whole. Replaying a run's stream through the four
    // standalone auditors must reach the same verdicts: same count, and
    // the same stored violations (rule, time and detail) in the same
    // order, same units audited.
    struct Case
    {
        const char *name;
        PersistModel model;
        RunOpts opts;
    };
    std::vector<Case> cases;
    // Every case makes more writes than the recycle window, so the
    // bundle's run recycles op records, and compacts clean writes,
    // along the way. The mutant cases keep the default 16 records: hot
    // keys give obsolete cuts, and so stubs with a cut mask.
    RunOpts healthy;
    healthy.requestsPerNode = 800;
    healthy.numRecords = 200;
    cases.push_back({"healthy", PersistModel::Scope, healthy});
    RunOpts longer;
    longer.requestsPerNode = 800;
    RunOpts m = longer;
    m.mutations.releaseRdLockEarly = true;
    cases.push_back({"releaseRdLockEarly", PersistModel::Synch, m});
    m = longer;
    m.mutations.ackBeforePersist = true;
    cases.push_back({"ackBeforePersist", PersistModel::Strict, m});
    m.persistNsPerKb = 60'000;
    cases.push_back({"ackBeforePersist/scope", PersistModel::Scope, m});
    m = longer;
    m.mutations.dropOnePersistAck = true;
    cases.push_back({"dropOnePersistAck", PersistModel::Strict, m});
    m = longer;
    m.mutations.duplicateAck = true;
    cases.push_back({"duplicateAck", PersistModel::Synch, m});
    m = longer;
    m.mutations.ignoreFifoCap = true;
    m.vfifoEntries = 1;
    m.workersPerNode = 4;
    m.writeFraction = 1.0;
    cases.push_back({"ignoreFifoCap", PersistModel::Synch, m});

    std::size_t cutStubs = 0;
    for (bool offload : {false, true}) {
        for (Case &c : cases) {
            SCOPED_TRACE(describe(offload, c.model) + " " + c.name);
            c.opts.capture = true;
            AuditRun run = runAudited(offload, c.model, c.opts);
            ASSERT_FALSE(run.stream.records.empty());
            for (const Record &r : run.stream.records) {
                kv::WriteId id;
                if (r.kind == EventKind::InvObsolete && opIdOf(r, id) &&
                    run.audit.table().compacted(id))
                    ++cutStubs;
            }

            StandaloneAudit standalone(run.audit.config());
            standalone.replay(run.stream.records);
            const std::vector<Auditor *> alone = standalone.auditors();

            const std::vector<const Auditor *> bundled =
                run.audit.auditors();
            ASSERT_EQ(bundled.size(), alone.size());
            for (std::size_t i = 0; i < alone.size(); ++i) {
                SCOPED_TRACE(alone[i]->name());
                EXPECT_STREQ(bundled[i]->name(), alone[i]->name());
                EXPECT_EQ(bundled[i]->violationCount(),
                          alone[i]->violationCount());
                EXPECT_EQ(verdicts(*bundled[i]), verdicts(*alone[i]));
                EXPECT_EQ(bundled[i]->opsAudited(),
                          alone[i]->opsAudited());
            }
            EXPECT_GT(run.audit.opsAudited(), OpTable::recycleWindow);
            if (std::string(c.name) == "healthy") {
                EXPECT_TRUE(run.audit.clean()) << run.audit.report(4);
                // The window held fewer records than the run laid;
                // the standalone index kept them all.
                EXPECT_LT(run.audit.table().recordsPeak(),
                          standalone.index.recordsPeak());
                // Clean writes left the window as stubs.
                EXPECT_LT(run.audit.table().fullPeak(),
                          run.audit.table().ops());
            }
        }
    }
    // The contended mutant runs compacted writes that a follower cut
    // as obsolete.
    EXPECT_GT(cutStubs, 0u);
}

namespace {

/** A record of @p kind for write @p id, from node 1, with an aux that
 *  trips the rules that read the kind: an ACK_P sent before its
 *  persist (P1) and an ACK_C for a write never fanned out (A1), a VAL
 *  and glb raises before any ACK (C1, C2, P2, P6), an early RDLock
 *  release (C3), a read of an unvalidated write (C4), an empty FIFO
 *  (F1) and a skip out of order (F3). */
Record
trippingRecord(EventKind kind, const kv::WriteId &id)
{
    Record rec{100, static_cast<std::int64_t>(id.key),
               static_cast<std::int64_t>(id.ts), 1, Category::Protocol,
               kind, 0};
    switch (kind) {
      case EventKind::AckSent:
        rec.aux = ackAux(net::MsgType::ACK_P, 1);
        break;
      case EventKind::AckReceived:
        rec.aux = ackAux(net::MsgType::ACK_C, 1);
        break;
      case EventKind::ValSent:
        rec.aux = valAux(net::MsgType::VAL);
        break;
      case EventKind::GlbRaised:
        rec.aux = 1; // durable; a volatile raise trips C1 just the same
        break;
      case EventKind::ClientOpEnd:
        rec.aux = opAux(OpType::Read, false);
        break;
      case EventKind::ClientOpBegin:
        rec.aux = opAux(OpType::Write, false);
        rec.a1 += 1 << kv::Timestamp::nodeBits; // a write of its own
        break;
      case EventKind::FifoDepth:
        rec.a0 = 0;
        rec.a1 = 0;
        break;
      case EventKind::VfifoSkipped:
        rec.a0 = -5;
        break;
      default:
        break;
    }
    return rec;
}

} // namespace

TEST(AuditRouting, AuditorsIgnoreKindsTheyDoNotDeclare)
{
    // The bundle routes a record only to the auditors whose declared
    // kinds hold it. So each auditor, fed a record of every kind outside
    // its kinds, keeps its violations and its units audited; a fresh one
    // fed the same records of its own kinds reports. Node 0 has begun
    // one write, with no ACK in: every gate is still closed.
    for (PersistModel model : {PersistModel::Synch, PersistModel::Strict}) {
        SCOPED_TRACE(modelName(model));
        StandaloneAudit alone({3, model, 4, 4});
        const kv::WriteId id = kv::WriteId::of(7, kv::Timestamp{1, 0});
        const Record begin{10,
                           static_cast<std::int64_t>(id.key),
                           static_cast<std::int64_t>(id.ts),
                           0,
                           Category::Protocol,
                           EventKind::ClientOpBegin,
                           opAux(OpType::Write, false)};
        const std::vector<Auditor *> auditors = alone.auditors();
        const KindSet declared[] = {
            ConsistencyAuditor::kinds, PersistencyAuditor::kinds,
            AckConservationAuditor::kinds, FifoWatchdog::kinds};
        for (std::size_t i = 0; i < auditors.size(); ++i) {
            Auditor &a = *auditors[i];
            SCOPED_TRACE(a.name());
            alone.index.onRecord(begin);
            a.onRecord(begin);
            const std::vector<std::string> before = verdicts(a);
            const std::uint64_t count = a.violationCount();
            const std::uint64_t units = a.opsAudited();
            for (unsigned k = 0; k <= unsigned(EventKind::AckSent); ++k) {
                const auto kind = static_cast<EventKind>(k);
                if (!inKinds(declared[i], kind))
                    a.onRecord(trippingRecord(kind, id));
            }
            EXPECT_EQ(a.violationCount(), count);
            EXPECT_EQ(verdicts(a), before);
            EXPECT_EQ(a.opsAudited(), units);

            StandaloneAudit fresh(alone.cfg);
            Auditor &b = *fresh.auditors()[i];
            b.onRecord(begin);
            for (unsigned k = 0; k <= unsigned(EventKind::AckSent); ++k) {
                const auto kind = static_cast<EventKind>(k);
                if (inKinds(declared[i], kind))
                    b.onRecord(trippingRecord(kind, id));
            }
            EXPECT_GT(b.violationCount(), 0u);
        }
    }
}

// ---------------------------------------------------------------------
// 5. The bundle's op table recycles quiescent writes' records and
//    compacts the clean ones; late records rebuild them exactly.
// ---------------------------------------------------------------------

namespace {

/**
 * Hand-built record streams for <Lin, Synch> (or another model) on two
 * nodes: node 0 coordinates every write, node 1 follows. The bundle
 * audits the stream as it is laid; stream keeps a copy for a
 * standalone replay.
 */
struct SynchPair
{
    FlightRecorder recorder{64};
    AuditBundle audit;
    StreamCapture stream;
    Tick now = 0;
    kv::Key nextKey = 1000;
    /** The follower's consistency ACK (Synch's combined one). */
    const std::uint16_t ack;

    explicit SynchPair(PersistModel model = PersistModel::Synch)
        : ack(ackAux(ackCType(model), 1))
    {
        audit.configure({2, model});
        audit.attach(recorder);
        recorder.addSink(&stream);
    }

    /** Write @p key, coordinated by node 0. */
    static kv::WriteId
    write(kv::Key key)
    {
        return kv::WriteId::of(key, kv::Timestamp{1, 0});
    }

    Record
    rec(EventKind kind, std::int32_t node, kv::WriteId id,
        std::uint16_t aux = 0)
    {
        recorder.record(now += 10, Category::Protocol, kind, node, id.key,
                        static_cast<std::int64_t>(id.ts), aux);
        return stream.records.back();
    }

    /** Begin and fan out @p id. */
    void
    begin(kv::WriteId id)
    {
        rec(EventKind::ClientOpBegin, 0, id, opAux(OpType::Write, false));
        rec(EventKind::InvFanout, 0, id);
        rec(EventKind::PersistDone, 0, id);
    }

    /** The follower applies @p id, persists and acknowledges it. */
    void
    follow(kv::WriteId id)
    {
        rec(EventKind::InvApplied, 1, id);
        rec(EventKind::PersistDone, 1, id);
        rec(EventKind::AckSent, 1, id, ack);
        rec(EventKind::AckReceived, 0, id, ack);
    }

    void
    end(kv::WriteId id, bool obsolete = false)
    {
        rec(EventKind::ClientOpEnd, 0, id, opAux(OpType::Write, obsolete));
    }

    /** <Lin, Scope>: node 0 tags @p id into @p scope. */
    void
    mark(kv::WriteId id, std::uint32_t scope)
    {
        recorder.record(now += 10, Category::Protocol, EventKind::ScopeMark,
                        0,
                        (static_cast<std::int64_t>(scope) << 32) |
                            static_cast<std::int64_t>(id.key),
                        static_cast<std::int64_t>(id.ts));
    }

    /** <Lin, Scope>: node 1 sends its [ACK_P]sc for @p scope. */
    void
    scopeAck(std::uint32_t scope)
    {
        recorder.record(now += 10, Category::Message, EventKind::AckSent, 1,
                        scope, 0, ackAux(net::MsgType::ACK_P_SC, 1));
    }

    /** A complete write: it goes quiescent, clean, in 8 records. */
    void
    completeWrite(kv::WriteId id)
    {
        begin(id);
        follow(id);
        end(id);
    }

    /** Quiesce recycleWindow + 1 clean writes, so every write that
     *  went quiescent before leaves the window. */
    void
    pushOut()
    {
        for (std::size_t i = 0; i <= OpTable::recycleWindow; ++i)
            completeWrite(write(nextKey++));
    }

    void
    finish()
    {
        audit.detach();
        audit.finish();
    }
};

/** The bundle's and the standalone auditors' verdicts agree. */
void
expectSameVerdicts(const AuditBundle &audit, StandaloneAudit &alone)
{
    const std::vector<const Auditor *> bundled = audit.auditors();
    const std::vector<Auditor *> standalone = alone.auditors();
    for (std::size_t i = 0; i < bundled.size(); ++i) {
        SCOPED_TRACE(bundled[i]->name());
        EXPECT_EQ(bundled[i]->violationCount(),
                  standalone[i]->violationCount());
        EXPECT_EQ(verdicts(*bundled[i]), verdicts(*standalone[i]));
    }
}

/**
 * The trace of @p id rendered from @p records: every record opIdOf
 * files under it, whole, none dropped or recycled.
 */
std::string
expectedTrace(const kv::WriteId &id, const std::vector<Record> &records)
{
    std::string lines;
    std::size_t n = 0;
    for (const Record &r : records) {
        kv::WriteId rid;
        if (opIdOf(r, rid) && rid == id) {
            lines += "  " + renderRecord(r) + "\n";
            ++n;
        }
    }
    std::ostringstream os;
    os << "op key=" << id.key << " ts=" << kv::Timestamp::unpack(id.ts)
       << " causal trace (" << n << " events):\n"
       << lines;
    return os.str();
}

} // namespace

TEST(AuditTrace, RecycledOpStillRendersAnExcerpt)
{
    SynchPair p;
    const kv::WriteId first = SynchPair::write(1);
    p.completeWrite(first);
    p.pushOut();
    // The first write's 8 records went back to the arena when the last
    // write went quiescent; until then the window's writes and the last
    // one were held. The clean write left the window as a stub.
    EXPECT_EQ(p.audit.table().recordsPeak(),
              8 * (OpTable::recycleWindow + 1));
    EXPECT_TRUE(p.audit.table().compacted(first));
    ASSERT_TRUE(p.audit.clean()) << p.audit.report();

    const Record dup = p.rec(EventKind::AckReceived, 0, first, p.ack);
    p.audit.detach();
    // The late ACK rebuilt the write's entry; now dirty, it stays one.
    EXPECT_FALSE(p.audit.table().compacted(first));
    ASSERT_EQ(p.audit.violationCount(), 1u) << p.audit.report();
    ASSERT_EQ(p.audit.acks().violations().size(), 1u);
    const AuditViolation &v = p.audit.acks().violations().front();
    EXPECT_EQ(v.rule, "A2-duplicate-ack");
    EXPECT_FALSE(v.trace.empty());
    EXPECT_NE(v.trace.find("causal trace (9 events)"), std::string::npos)
        << v.trace;
    EXPECT_NE(v.trace.find("8 earlier records recycled"),
              std::string::npos)
        << v.trace;
    EXPECT_NE(v.trace.find(renderRecord(dup)), std::string::npos)
        << v.trace;
}

TEST(AuditAcks, OrphanAckIsOneA1)
{
    // An ACK for a write that was never admitted: exactly one A1, on
    // the bundle and on the standalone auditors.
    SynchPair p;
    const kv::WriteId never = SynchPair::write(1);
    const Record orphan = p.rec(EventKind::AckReceived, 0, never, p.ack);
    p.finish();
    ASSERT_EQ(p.audit.violationCount(), 1u) << p.audit.report();
    ASSERT_EQ(p.audit.acks().violations().size(), 1u);
    const AuditViolation &v = p.audit.acks().violations().front();
    EXPECT_EQ(v.rule, "A1-orphan-ack");
    EXPECT_NE(v.trace.find(renderRecord(orphan)), std::string::npos)
        << v.trace;

    StandaloneAudit alone(p.audit.config());
    alone.replay(p.stream.records);
    ASSERT_EQ(alone.acks.violationCount(), 1u);
    EXPECT_EQ(alone.acks.violations().front().rule, "A1-orphan-ack");
    expectSameVerdicts(p.audit, alone);
}

TEST(AuditAcks, LateAckOnCompactedWriteStaysA2)
{
    // The same ACK, sent again after its write was compacted: a stub
    // rebuilds the write's sender mask, so it is a duplicate (A2), not
    // an orphan (A1), on the bundle as on the standalone auditors; the
    // doubled ACK count then fails A3 at the end of the run.
    SynchPair p;
    const kv::WriteId first = SynchPair::write(1);
    p.completeWrite(first);
    p.pushOut();
    ASSERT_TRUE(p.audit.table().compacted(first));
    p.rec(EventKind::AckReceived, 0, first, p.ack);
    p.finish();

    const std::vector<std::string> want = {"A2-duplicate-ack",
                                           "A3-consistency-acks-unbalanced"};
    std::vector<std::string> got;
    for (const AuditViolation &v : p.audit.acks().violations())
        got.push_back(v.rule);
    EXPECT_EQ(got, want) << p.audit.report();
    EXPECT_EQ(p.audit.violationCount(), 2u) << p.audit.report();
    EXPECT_NE(p.audit.acks().violations().front().trace.find(
                  "8 earlier records recycled"),
              std::string::npos);

    StandaloneAudit alone(p.audit.config());
    alone.replay(p.stream.records);
    expectSameVerdicts(p.audit, alone);
}

TEST(AuditTrace, DirtyWritesAreNeverCompacted)
{
    // A write whose state the config and its id cannot rebuild keeps
    // its entry: one with a duplicated ACK, and one its coordinator cut
    // as obsolete. A follower's obsolete cut is kept in the stub (the
    // cut node's mask), so that write is compacted, and rebuilt exactly.
    SynchPair p;
    const kv::WriteId dupAck = SynchPair::write(1);
    p.begin(dupAck);
    p.follow(dupAck);
    p.rec(EventKind::AckReceived, 0, dupAck, p.ack);
    p.end(dupAck);

    const kv::WriteId coordCut = SynchPair::write(2);
    p.begin(coordCut);
    p.rec(EventKind::InvObsolete, 0, coordCut);
    p.rec(EventKind::InvApplied, 1, coordCut);
    p.rec(EventKind::PersistDone, 1, coordCut);
    p.rec(EventKind::AckSent, 1, coordCut, p.ack);
    p.rec(EventKind::AckReceived, 0, coordCut, p.ack);
    p.end(coordCut, /*obsolete=*/true);

    const kv::WriteId followerCut = SynchPair::write(3);
    p.begin(followerCut);
    p.rec(EventKind::InvObsolete, 1, followerCut);
    p.rec(EventKind::AckSent, 1, followerCut, p.ack);
    p.rec(EventKind::AckReceived, 0, followerCut, p.ack);
    p.end(followerCut);

    p.pushOut();
    EXPECT_FALSE(p.audit.table().compacted(dupAck));
    EXPECT_FALSE(p.audit.table().compacted(coordCut));
    EXPECT_TRUE(p.audit.table().compacted(followerCut));
    OpLedger::OpState scratch;
    const OpLedger::OpState *cut = p.audit.table().find(followerCut, scratch);
    ASSERT_NE(cut, nullptr);
    EXPECT_EQ(cut->obsoleteNodes, 2u);
    EXPECT_EQ(cut->persistNodes, 1u);
    // The window's writes and the two dirty ones.
    EXPECT_EQ(p.audit.table().fullOps(), OpTable::recycleWindow + 2);

    // A late duplicate on the follower-cut stub: A2, and at the end A3;
    // P5 holds, since the rebuilt entry still has node 1's cut.
    p.rec(EventKind::AckReceived, 0, followerCut, p.ack);
    p.finish();
    StandaloneAudit alone(p.audit.config());
    alone.replay(p.stream.records);
    expectSameVerdicts(p.audit, alone);
    EXPECT_EQ(p.audit.persistency().violationCount(), 0u)
        << p.audit.report();
    EXPECT_EQ(p.audit.acks().violationCount(), 4u) << p.audit.report();
}

TEST(AuditLedger, WriteIndexedBeforeAdmissionKeepsAdmissionOrder)
{
    // An orphan ACK indexes write A before A is admitted, after B. The
    // end-of-run rules still visit B before A, as the standalone
    // ledger's admission order does, and every rendered trace agrees.
    SynchPair p;
    const kv::WriteId a = SynchPair::write(1);
    const kv::WriteId b = SynchPair::write(2);
    p.rec(EventKind::AckReceived, 0, a, p.ack);
    p.begin(b);
    p.begin(a);
    p.finish();

    StandaloneAudit alone(p.audit.config());
    alone.replay(p.stream.records);
    const std::vector<const Auditor *> bundled = p.audit.auditors();
    const std::vector<Auditor *> standalone = alone.auditors();
    for (std::size_t i = 0; i < bundled.size(); ++i) {
        SCOPED_TRACE(bundled[i]->name());
        ASSERT_EQ(bundled[i]->violations().size(),
                  standalone[i]->violations().size());
        for (std::size_t j = 0; j < bundled[i]->violations().size();
             ++j) {
            const AuditViolation &x = bundled[i]->violations()[j];
            const AuditViolation &y = standalone[i]->violations()[j];
            EXPECT_EQ(x.rule, y.rule);
            EXPECT_EQ(x.detail, y.detail);
            EXPECT_EQ(x.trace, y.trace);
        }
    }
    // P5 for B, then for A (node 1 never persisted either).
    const auto &p5 = p.audit.persistency().violations();
    ASSERT_EQ(p5.size(), 2u) << p.audit.report();
    EXPECT_NE(p5[0].trace.find("op key=2 "), std::string::npos);
    EXPECT_NE(p5[1].trace.find("op key=1 "), std::string::npos);
    EXPECT_EQ(p.audit.table().ops(), 2u);
}

// ---------------------------------------------------------------------
// 6. <Lin, Scope>'s P4 walks a scope's writes; op traces render every
//    kept record exactly.
// ---------------------------------------------------------------------

TEST(AuditScope, P4NamesTheWriteNotDurableAtTheSender)
{
    // Node 1 sends its [ACK_P]sc while one of the scope's two writes is
    // durable there and the other is not: exactly one P4, naming the
    // second write, with that write's trace up to the ACK.
    SynchPair p(PersistModel::Scope);
    constexpr std::uint32_t scope = 5;
    const kv::WriteId durable = SynchPair::write(1);
    const kv::WriteId pending = SynchPair::write(2);
    p.begin(durable);
    p.mark(durable, scope);
    p.follow(durable);
    p.end(durable);
    p.begin(pending);
    p.mark(pending, scope);
    p.rec(EventKind::InvApplied, 1, pending);
    p.scopeAck(scope);
    const std::vector<Record> upToAck = p.stream.records;
    p.rec(EventKind::PersistDone, 1, pending);
    p.rec(EventKind::AckSent, 1, pending, p.ack);
    p.rec(EventKind::AckReceived, 0, pending, p.ack);
    p.end(pending);
    p.finish();

    ASSERT_EQ(p.audit.violationCount(), 1u) << p.audit.report();
    ASSERT_EQ(p.audit.persistency().violations().size(), 1u);
    const AuditViolation &v = p.audit.persistency().violations().front();
    EXPECT_EQ(v.rule, "P4-scope-ack-before-flush");
    EXPECT_EQ(v.when, upToAck.back().when);
    EXPECT_NE(v.detail.find("node 1 for scope 5 "), std::string::npos)
        << v.detail;
    EXPECT_EQ(v.trace, expectedTrace(pending, upToAck));

    StandaloneAudit alone(p.audit.config());
    alone.replay(p.stream.records);
    expectSameVerdicts(p.audit, alone);
    ASSERT_EQ(alone.persistency.violations().size(), 1u);
    EXPECT_EQ(alone.persistency.violations().front().trace, v.trace);
}

TEST(AuditScope, A4ReportsScopesInFirstSeenOrder)
{
    // Each [PERSIST]sc completes with no [ACK_P]sc: one A4 per scope, in
    // the order the scopes first appeared, whatever their ids hash to.
    SynchPair p(PersistModel::Scope);
    const std::vector<std::uint32_t> scopes = {
        7, 3, 1'000'000, 42, 5, 0xFFFF'FFFF, 19, 8, 64, 2, 11, 1 << 20};
    for (std::uint32_t scope : scopes) {
        const kv::WriteId id = kv::WriteId::ofScope(scope);
        p.rec(EventKind::ClientOpBegin, 0, id,
              opAux(OpType::PersistSc, false));
        p.rec(EventKind::ClientOpEnd, 0, id,
              opAux(OpType::PersistSc, false));
    }
    p.finish();

    const auto &found = p.audit.acks().violations();
    ASSERT_EQ(found.size(), scopes.size()) << p.audit.report();
    for (std::size_t i = 0; i < scopes.size(); ++i) {
        EXPECT_EQ(found[i].rule, "A4-scope-acks-unbalanced");
        EXPECT_EQ(found[i].detail,
                  "[PERSIST]sc for scope " + std::to_string(scopes[i]) +
                      " completed with 0/1 [ACK_P]sc");
    }
}

TEST(AuditScope, P4SkipsCompactedWrites)
{
    // Two writes of the scope left the recycle window as stubs, one
    // durable on both nodes and one node 1 cut as obsolete: neither is
    // a P4. A third write, not yet durable at node 1, is the only one.
    SynchPair p(PersistModel::Scope);
    constexpr std::uint32_t scope = 9;
    const kv::WriteId clean = SynchPair::write(1);
    const kv::WriteId cut = SynchPair::write(2);
    const kv::WriteId pending = SynchPair::write(3);
    p.begin(clean);
    p.mark(clean, scope);
    p.follow(clean);
    p.end(clean);
    p.begin(cut);
    p.mark(cut, scope);
    p.rec(EventKind::InvObsolete, 1, cut);
    p.rec(EventKind::AckSent, 1, cut, p.ack);
    p.rec(EventKind::AckReceived, 0, cut, p.ack);
    p.end(cut);
    p.pushOut();
    ASSERT_TRUE(p.audit.table().compacted(clean));
    ASSERT_TRUE(p.audit.table().compacted(cut));
    p.begin(pending);
    p.mark(pending, scope);
    p.scopeAck(scope);
    p.rec(EventKind::InvApplied, 1, pending);
    p.rec(EventKind::PersistDone, 1, pending);
    p.rec(EventKind::AckSent, 1, pending, p.ack);
    p.rec(EventKind::AckReceived, 0, pending, p.ack);
    p.end(pending);
    p.finish();

    ASSERT_EQ(p.audit.violationCount(), 1u) << p.audit.report();
    ASSERT_EQ(p.audit.persistency().violations().size(), 1u);
    EXPECT_NE(p.audit.persistency().violations().front().trace.find(
                  "op key=3 "),
              std::string::npos);
    StandaloneAudit alone(p.audit.config());
    alone.replay(p.stream.records);
    expectSameVerdicts(p.audit, alone);
}

TEST(AuditScope, P4ChecksAWriteMarkedBeforeItsAdmission)
{
    // The write's ScopeMark is its first record, laid before another
    // write is admitted, so its admission moves it to a later slot of
    // the op table. It is marked again after: the [ACK_P]sc checks it
    // once per mark.
    SynchPair p(PersistModel::Scope);
    constexpr std::uint32_t scope = 3;
    const kv::WriteId early = SynchPair::write(1);
    const kv::WriteId other = SynchPair::write(2);
    p.mark(early, scope);
    p.completeWrite(other);
    p.begin(early);
    p.mark(early, scope);
    p.rec(EventKind::InvApplied, 1, early);
    p.scopeAck(scope);
    const std::vector<Record> upToAck = p.stream.records;
    p.rec(EventKind::PersistDone, 1, early);
    p.rec(EventKind::AckSent, 1, early, p.ack);
    p.rec(EventKind::AckReceived, 0, early, p.ack);
    p.end(early);
    p.finish();

    const auto &got = p.audit.persistency().violations();
    ASSERT_EQ(p.audit.violationCount(), 2u) << p.audit.report();
    ASSERT_EQ(got.size(), 2u);
    for (const AuditViolation &v : got) {
        EXPECT_EQ(v.rule, "P4-scope-ack-before-flush");
        EXPECT_EQ(v.trace, expectedTrace(early, upToAck));
    }
    StandaloneAudit alone(p.audit.config());
    alone.replay(p.stream.records);
    expectSameVerdicts(p.audit, alone);
}

TEST(AuditTrace, KeptRecordsRenderExactlyForEveryOpKeyedKind)
{
    // One record of every op-keyed kind, over every category and node
    // ids from -1 to 63, and a ScopeMark whose scope needs more than 16
    // bits: the op table and the standalone index render each exactly
    // as the record itself renders. A second write's key needs more
    // than 32 bits.
    const kv::WriteId id = kv::WriteId::of(7, kv::Timestamp{3, 2});
    const auto key = static_cast<std::int64_t>(id.key);
    const auto ts = static_cast<std::int64_t>(id.ts);
    const std::vector<Record> records = {
        {10, key, ts, 2, Category::Protocol, EventKind::ClientOpBegin,
         opAux(OpType::Write, false)},
        {11, key, ts, 2, Category::Message, EventKind::InvFanout, 0},
        {12, key, ts, 2, Category::Fifo, EventKind::SnicBroadcastInv, 0},
        {13, (std::int64_t{0x12345} << 32) | key, ts, 2,
         Category::Protocol, EventKind::ScopeMark, 0},
        {14, key, ts, 0, Category::Protocol, EventKind::InvApplied, 0},
        {15, key, ts, 1, Category::Protocol, EventKind::InvObsolete, 0},
        {16, key, ts, 0, Category::Recovery, EventKind::PersistDone, 0},
        {17, key, ts, 0, Category::Message, EventKind::AckSent,
         ackAux(net::MsgType::ACK_C, 0)},
        {18, key, ts, 2, Category::Message, EventKind::AckReceived,
         ackAux(net::MsgType::ACK_P, 0)},
        {19, key, ts, 2, Category::Message, EventKind::ValSent,
         valAux(net::MsgType::VAL_C)},
        {20, key, ts, 0, Category::Lock, EventKind::RdLockReleased, 0},
        {21, key, ts, -1, Category::Phase, EventKind::GlbRaised, 1},
        {Tick{1} << 40, key, ts, 63, Category::Protocol,
         EventKind::ClientOpEnd, opAux(OpType::Write, true)},
    };
    const kv::WriteId wide = kv::WriteId::of((kv::Key{1} << 33) + 5,
                                             kv::Timestamp{1, 0});
    const std::vector<Record> wideRecords = {
        {30, static_cast<std::int64_t>(wide.key),
         static_cast<std::int64_t>(wide.ts), 0, Category::Message,
         EventKind::InvFanout, 0},
    };

    OpTraceIndex index;
    AuditBundle audit;
    audit.configure({3, PersistModel::Scope});
    for (const std::vector<Record> *rs : {&records, &wideRecords}) {
        for (const Record &r : *rs) {
            kv::WriteId rid;
            ASSERT_TRUE(opIdOf(r, rid)) << renderRecord(r);
            index.onRecord(r);
            audit.onRecord(r);
        }
    }
    const std::string want = expectedTrace(id, records);
    EXPECT_NE(want.find("causal trace (13 events)"), std::string::npos);
    EXPECT_EQ(index.render(id), want);
    EXPECT_EQ(audit.table().render(id), want);
    const std::string wantWide = expectedTrace(wide, wideRecords);
    EXPECT_NE(wantWide.find("key=8589934597 "), std::string::npos);
    EXPECT_EQ(index.render(wide), wantWide);
    EXPECT_EQ(audit.table().render(wide), wantWide);
}

// ---------------------------------------------------------------------
// 7. OpSlots, the ledgers' and op traces' write -> slot table.
// ---------------------------------------------------------------------

TEST(OpSlots, EveryWriteKeepsItsSlotAcrossDoublings)
{
    // The table starts at 64 entries and doubles past 3/4 load, so 1500
    // writes take it through five doublings to 2048 entries. The first
    // four writes hash to the last entry of every table up to 2048
    // entries: at each size their probe run wraps past the end, and
    // each grow must re-place the wrapped ones.
    constexpr std::uint32_t lastEntry = 2047;
    constexpr std::size_t n = 1500;
    std::vector<kv::WriteId> ids;
    for (kv::Key k = 1; ids.size() < 4; ++k) {
        const kv::WriteId id{k, 7};
        if ((id.hash() & lastEntry) == lastEntry)
            ids.push_back(id);
    }
    for (kv::Key k = 1; ids.size() < n; ++k)
        ids.push_back({k, 1});

    OpSlots slots;
    EXPECT_EQ(slots.find(ids[0]), OpSlots::none); // before any table
    for (std::uint32_t i = 0; i < n; ++i) {
        bool added = false;
        ASSERT_EQ(slots.insert(ids[i], added), i);
        ASSERT_TRUE(added);
        ASSERT_EQ(slots.size(), i + 1u);
        for (std::uint32_t j = 0; j <= i; ++j)
            ASSERT_EQ(slots.find(ids[j]), j)
                << "write " << j << " lost after " << i + 1 << " inserts";
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        bool added = true;
        EXPECT_EQ(slots.insert(ids[i], added), i);
        EXPECT_FALSE(added);
        EXPECT_TRUE(slots.id(i) == ids[i]);
    }
    EXPECT_EQ(slots.size(), n);
    EXPECT_EQ(slots.find({1, 2}), OpSlots::none);
    EXPECT_EQ(slots.find({n + 1, 1}), OpSlots::none);
}
