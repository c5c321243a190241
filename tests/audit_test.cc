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
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/audit.hh"
#include "obs/recorder.hh"
#include "simproto/cluster_b.hh"
#include "simproto/driver.hh"
#include "snic/cluster_o.hh"

using namespace minos;
using namespace minos::obs;
using namespace minos::simproto;

namespace {

struct AuditRun
{
    FlightRecorder recorder{1 << 15};
    AuditBundle audit;
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
    double writeFraction = 0.8;
    int numNodes = 3;
    std::uint64_t numRecords = 16;
    std::uint64_t requestsPerNode = 80;
    std::uint64_t seed = 7;
};

/** Run a small closed-loop workload with the auditors attached. */
AuditRun
runAudited(bool offload, PersistModel model, const RunOpts &opts = {})
{
    AuditRun run;
    sim::Simulator sim;
    ClusterConfig cfg;
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

    DriverConfig dc;
    dc.requestsPerNode = opts.requestsPerNode;
    dc.workersPerNode = opts.workersPerNode;
    dc.ycsb.numRecords = cfg.numRecords;
    dc.ycsb.writeFraction = opts.writeFraction;
    dc.ycsb.seed = opts.seed;

    if (offload) {
        snic::ClusterO cluster(sim, cfg, model);
        run.result = runWorkload(sim, cluster, dc);
    } else {
        ClusterB cluster(sim, cfg, model);
        run.result = runWorkload(sim, cluster, dc);
    }
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

    RunResult res;
    if (offload) {
        snic::ClusterO cluster(sim, cfg, PersistModel::Strict);
        res = runWorkload(sim, cluster, dc);
    } else {
        ClusterB cluster(sim, cfg, PersistModel::Strict);
        res = runWorkload(sim, cluster, dc);
    }
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

