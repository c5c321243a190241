/**
 * @file
 * Integration tests of the simulated MINOS-B cluster: protocol
 * correctness across all five <Lin, P> models, convergence invariants,
 * obsolete-write handling, read gating, and the workload driver.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster_helpers.hh"
#include "simproto/cluster_b.hh"
#include "simproto/driver.hh"
#include "simproto/replica_store.hh"
#include "snic/node_o.hh"

using namespace minos;
using namespace minos::simproto;
using namespace minos::test;
using kv::Key;
using kv::NodeId;
using kv::Timestamp;
using kv::Value;

class ModelTest : public ::testing::TestWithParam<PersistModel>
{
};

INSTANTIATE_TEST_SUITE_P(AllModels, ModelTest,
                         ::testing::ValuesIn(allModels),
                         [](const auto &info) {
                             return std::string(
                                 shortModelName(info.param));
                         });

TEST_P(ModelTest, SingleWriteReplicatesEverywhere)
{
    sim::Simulator sim;
    ClusterB cluster(sim, smallConfig(), GetParam());
    OpStats st;
    sim.spawn(doWrite(&cluster, 0, 7, 1234, &st));
    sim.run();

    EXPECT_FALSE(st.obsolete);
    EXPECT_GT(st.latencyNs, 0);
    for (int n = 0; n < 3; ++n) {
        const kv::Record &rec = cluster.node(n).record(7);
        EXPECT_EQ(rec.value, 1234u) << "node " << n;
        EXPECT_EQ(rec.volatileTs, (Timestamp{0, 0})) << "node " << n;
    }
    expectConverged(cluster, 7);
}

TEST_P(ModelTest, WriteIsDurableEverywhereAtQuiescence)
{
    sim::Simulator sim;
    ClusterB cluster(sim, smallConfig(), GetParam());
    OpStats st;
    sim.spawn(doWrite(&cluster, 1, 3, 99, &st));
    sim.run();
    // Event/Scope persist in the background, but the sim has quiesced,
    // so even they must have drained... except Scope, whose scoped write
    // only persists when the scope is persisted (scope id 0 here gets a
    // background persist too in our implementation).
    expectDurable(cluster, 3);
    // Every node logged exactly one entry.
    for (int n = 0; n < 3; ++n)
        EXPECT_EQ(cluster.node(n).log().size(), 1u) << "node " << n;
}

TEST_P(ModelTest, RemoteReadAfterWriteSeesValue)
{
    sim::Simulator sim;
    ClusterB cluster(sim, smallConfig(), GetParam());
    OpStats wr, rd;
    sim.spawn(writeThenRemoteRead(&cluster, 0, 2, 11, 777, &wr, &rd));
    sim.run();
    EXPECT_EQ(rd.value, 777u);
    EXPECT_GE(rd.latencyNs, 0);
}

TEST_P(ModelTest, SequentialWritesLastValueWins)
{
    sim::Simulator sim;
    ClusterB cluster(sim, smallConfig(), GetParam());
    OpStats s1, s2, s3;
    struct Seq
    {
        static sim::Process
        run(DdpCluster *c, OpStats *a, OpStats *b, OpStats *d)
        {
            *a = co_await c->clientWrite(0, 5, 100, 0);
            *b = co_await c->clientWrite(1, 5, 200, 0);
            *d = co_await c->clientWrite(2, 5, 300, 0);
        }
    };
    sim.spawn(Seq::run(&cluster, &s1, &s2, &s3));
    sim.run();
    for (int n = 0; n < 3; ++n)
        EXPECT_EQ(cluster.node(n).record(5).value, 300u) << "node " << n;
    expectConverged(cluster, 5);
    expectDurable(cluster, 5);
    // Versions increase monotonically: 0 -> 1 -> 2.
    EXPECT_EQ(cluster.node(0).record(5).volatileTs,
              (Timestamp{2, 2}));
}

namespace {

/** A client-write on a key whose local copy has the largest version. */
void
writeAfterTopVersion()
{
    sim::Simulator sim;
    ClusterB cluster(sim, smallConfig(), PersistModel::Synch);
    const_cast<kv::Record &>(cluster.node(0).record(7)).volatileTs =
        Timestamp{Timestamp::maxVersion, 1};
    OpStats st;
    sim.spawn(doWrite(&cluster, 0, 7, 1, &st));
    sim.run();
}

} // namespace

TEST(DdpCoreDeathTest, WriteVersionOverflowPanics)
{
    EXPECT_DEATH(writeAfterTopVersion(), "TS_WR version overflow on key 7");
}

TEST_P(ModelTest, ConcurrentConflictingWritesConverge)
{
    sim::Simulator sim;
    ClusterB cluster(sim, smallConfig(), GetParam());
    // Several concurrent writers to the SAME key from different nodes:
    // snatching + obsoleteness machinery must keep replicas consistent.
    constexpr int writers = 3;
    OpStats st[writers];
    for (int w = 0; w < writers; ++w)
        sim.spawn(doWrite(&cluster, static_cast<NodeId>(w), 9,
                          1000u + static_cast<Value>(w), &st[w]));
    sim.run();
    expectConverged(cluster, 9);
    expectDurable(cluster, 9);
    // The winner is one of the written values.
    Value final = cluster.node(0).record(9).value;
    EXPECT_TRUE(final == 1000u || final == 1001u || final == 1002u);
    // No transaction left pending anywhere.
    for (int n = 0; n < 3; ++n)
        EXPECT_EQ(cluster.node(n).pendingTxns(), 0u) << "node " << n;
}

TEST_P(ModelTest, WorkloadRunConvergesAllKeys)
{
    sim::Simulator sim;
    ClusterConfig cfg = smallConfig(3, 32); // small DB forces conflicts
    ClusterB cluster(sim, cfg, GetParam());

    DriverConfig dc;
    dc.requestsPerNode = 200;
    dc.workersPerNode = 3;
    dc.ycsb.numRecords = cfg.numRecords;
    dc.ycsb.requestsPerNode = dc.requestsPerNode;

    RunResult res = runWorkload(sim, cluster, dc);
    EXPECT_EQ(res.writes + res.reads, 600u);
    EXPECT_GT(res.duration, 0);
    EXPECT_GT(res.writeLat.count(), 0u);
    EXPECT_GT(res.readLat.count(), 0u);
    for (Key k = 0; k < cfg.numRecords; ++k) {
        expectConverged(cluster, k);
        expectDurable(cluster, k);
    }
    for (int n = 0; n < 3; ++n)
        EXPECT_EQ(cluster.node(n).pendingTxns(), 0u) << "node " << n;
}

TEST_P(ModelTest, HotSingleKeyWorkloadProducesObsoletes)
{
    sim::Simulator sim;
    ClusterConfig cfg = smallConfig(3, 1); // one record: max conflict
    ClusterB cluster(sim, cfg, GetParam());

    DriverConfig dc;
    dc.requestsPerNode = 100;
    dc.workersPerNode = 3;
    dc.ycsb.numRecords = 1;
    dc.ycsb.writeFraction = 1.0;

    RunResult res = runWorkload(sim, cluster, dc);
    EXPECT_EQ(res.writes, 300u);
    // With everyone hammering one key, concurrent INVs must race and
    // some arrive already stale at followers.
    std::uint64_t follower_obsoletes = 0;
    for (int n = 0; n < 3; ++n)
        follower_obsoletes += cluster.node(n).counters().invsObsolete;
    EXPECT_GT(follower_obsoletes, 0u);
    expectConverged(cluster, 0);
    expectDurable(cluster, 0);
}

TEST_P(ModelTest, CoordinatorObsoleteCutShort)
{
    // Exercise the coordinator's post-WRLock obsoleteness path (Fig. 2
    // lines 10/15-16): a remote INV with a newer timestamp must land
    // between TS_WR generation and the final check. The sim is
    // deterministic, so we sweep the start offset of the local write
    // until the race window is hit.
    bool hit = false;
    for (Tick offset = 0; offset <= 20000 && !hit; offset += 100) {
        sim::Simulator sim;
        ClusterConfig cfg = smallConfig();
        // Widen the generation->check window so the INV can sneak in.
        cfg.hostSyncNs = 3000;
        ClusterB cluster(sim, cfg, GetParam());

        // Node 1 primes the record (so versions are non-trivial), then
        // immediately writes again; node 0 writes after `offset`.
        struct Node1Writes
        {
            static sim::Process
            run(ClusterB *c, OpStats *out)
            {
                co_await c->clientWrite(1, 0, 1, 0);
                *out = co_await c->clientWrite(1, 0, 2, 0);
            }
        };
        struct Node0Write
        {
            static sim::Process
            run(ClusterB *c, Tick offset, OpStats *out)
            {
                co_await sim::delay(offset);
                *out = co_await c->clientWrite(0, 0, 3, 0);
            }
        };
        OpStats st0, st1;
        sim.spawn(Node1Writes::run(&cluster, &st1));
        sim.spawn(Node0Write::run(&cluster, offset, &st0));
        sim.run();
        if (st0.obsolete)
            hit = true;
        // Regardless of who won, replicas must converge.
        expectConverged(cluster, 0);
    }
    EXPECT_TRUE(hit)
        << "no start offset produced a coordinator-side obsolete write";
}

TEST_P(ModelTest, ScalesToMoreNodes)
{
    sim::Simulator sim;
    ClusterConfig cfg = smallConfig(6, 16);
    ClusterB cluster(sim, cfg, GetParam());
    DriverConfig dc;
    dc.requestsPerNode = 60;
    dc.workersPerNode = 2;
    dc.ycsb.numRecords = cfg.numRecords;
    RunResult res = runWorkload(sim, cluster, dc);
    EXPECT_EQ(res.writes + res.reads, 360u);
    for (Key k = 0; k < cfg.numRecords; ++k)
        expectConverged(cluster, k);
}

TEST(ClusterB, ReadOfUnwrittenKeyIsImmediate)
{
    sim::Simulator sim;
    ClusterB cluster(sim, smallConfig(), PersistModel::Synch);
    OpStats rd;
    sim.spawn(doRead(&cluster, 0, 0, &rd));
    sim.run();
    EXPECT_EQ(rd.value, 0u);
    // Just the request-processing + LLC read costs; no protocol stall.
    EXPECT_LT(rd.latencyNs, 1000);
}

TEST(ClusterB, WriteLatencyIncludesNetworkRoundTrip)
{
    sim::Simulator sim;
    ClusterConfig cfg = smallConfig();
    ClusterB cluster(sim, cfg, PersistModel::Synch);
    OpStats st;
    sim.spawn(doWrite(&cluster, 0, 1, 42, &st));
    sim.run();
    // At minimum: PCIe out+in both ways + NVM persist on both sides.
    EXPECT_GT(st.latencyNs, 2 * cfg.pcieLatencyNs + cfg.persistNsPerKb);
    EXPECT_GT(st.commNs, 0.0);
    EXPECT_GT(st.compNs, 0.0);
}

TEST(ClusterB, StricterModelsHaveHigherWriteLatency)
{
    // Fig. 4 shape: conservative persistency -> higher write latency.
    auto mean_write = [](PersistModel m) {
        sim::Simulator sim;
        ClusterConfig cfg = smallConfig(3, 128);
        ClusterB cluster(sim, cfg, m);
        DriverConfig dc;
        dc.requestsPerNode = 150;
        dc.workersPerNode = 3;
        dc.ycsb.numRecords = cfg.numRecords;
        return runWorkload(sim, cluster, dc).writeLat.mean();
    };
    double synch = mean_write(PersistModel::Synch);
    double strict = mean_write(PersistModel::Strict);
    double event = mean_write(PersistModel::Event);
    EXPECT_GT(strict, event);
    EXPECT_GT(synch, event);
}

TEST(ClusterB, ScopePersistFlushesScope)
{
    sim::Simulator sim;
    ClusterConfig cfg = smallConfig();
    ClusterB cluster(sim, cfg, PersistModel::Scope);
    struct Scoped
    {
        static sim::Process
        run(ClusterB *c, OpStats *persist_out)
        {
            net::ScopeId sc = 0x42;
            co_await c->clientWrite(0, 1, 10, sc);
            co_await c->clientWrite(0, 2, 20, sc);
            *persist_out = co_await c->persistScope(0, sc);
        }
    };
    OpStats ps;
    sim.spawn(Scoped::run(&cluster, &ps));
    sim.run();
    EXPECT_GT(ps.latencyNs, 0);
    // After [PERSIST]sc returned, both writes are durable on all nodes.
    expectDurable(cluster, 1);
    expectDurable(cluster, 2);
}

TEST(ClusterB, PersistScopeRetiresItsTransaction)
{
    // A [PERSIST]sc is a transaction of the pending table, like a
    // write: it leaves none behind, and an [ACK_P]sc that arrives after
    // it completed is dropped as stray.
    sim::Simulator sim;
    ClusterB cluster(sim, smallConfig(), PersistModel::Scope);
    const net::ScopeId sc = 0x42;
    struct Scoped
    {
        static sim::Process
        run(ClusterB *c, net::ScopeId sc)
        {
            co_await c->clientWrite(0, 1, 10, sc);
            co_await c->persistScope(0, sc);
        }
    };
    sim.spawn(Scoped::run(&cluster, sc));
    sim.run();
    NodeB &coord = cluster.node(0);
    for (NodeId n = 0; n < 3; ++n)
        EXPECT_EQ(cluster.node(n).pendingTxns(), 0u) << "node " << n;

    const NodeCounters before = coord.counters();
    net::Message late;
    late.type = net::MsgType::ACK_P_SC;
    late.src = 1;
    late.dst = 0;
    late.scope = sc;
    late.sizeBytes = net::controlMsgBytes;
    coord.deliver(late);
    sim.run();
    EXPECT_EQ(coord.counters().acksReceived, before.acksReceived + 1);
    EXPECT_EQ(coord.pendingTxns(), 0u);
    EXPECT_EQ(coord.counters().valsSent, before.valsSent);
}

TEST(ClusterB, PersistScopeIsNoopForOtherModels)
{
    sim::Simulator sim;
    ClusterB cluster(sim, smallConfig(), PersistModel::Synch);
    OpStats ps;
    struct P
    {
        static sim::Process
        run(ClusterB *c, OpStats *out)
        {
            *out = co_await c->persistScope(0, 7);
        }
    };
    sim.spawn(P::run(&cluster, &ps));
    sim.run();
    EXPECT_EQ(ps.latencyNs, 0);
}

TEST(ClusterB, BatchingVariantStillCorrect)
{
    // Fig. 12's B+batch configuration must preserve protocol semantics.
    sim::Simulator sim;
    OffloadOptions opts;
    opts.batching = true;
    ClusterB cluster(sim, smallConfig(), PersistModel::Synch, opts);
    OpStats st;
    sim.spawn(doWrite(&cluster, 0, 4, 55, &st));
    sim.run();
    for (int n = 0; n < 3; ++n)
        EXPECT_EQ(cluster.node(n).record(4).value, 55u);
    expectConverged(cluster, 4);
}

TEST(ClusterB, CommunicationDominatesWriteLatency)
{
    // Paper §IV: communication is 51-73% of write latency at 5 nodes.
    sim::Simulator sim;
    ClusterConfig cfg = smallConfig(5, 1024);
    ClusterB cluster(sim, cfg, PersistModel::Synch);
    DriverConfig dc;
    dc.requestsPerNode = 200;
    dc.workersPerNode = 5;
    dc.ycsb.numRecords = cfg.numRecords;
    RunResult res = runWorkload(sim, cluster, dc);
    double frac = res.breakdown.commFraction();
    EXPECT_GT(frac, 0.35) << "comm fraction " << frac;
    EXPECT_LT(frac, 0.90) << "comm fraction " << frac;
}

namespace {

/** Everything a run produces that determinism must preserve. */
struct RunFingerprint
{
    std::uint64_t eventsExecuted;
    Tick completionTick;
    std::uint64_t writeDigest;
    std::uint64_t readDigest;
    std::uint64_t writes, reads, obsoletes;

    bool operator==(const RunFingerprint &) const = default;
};

RunFingerprint
runSeededB(PersistModel model, int workers = 3,
           int host_cores = ClusterConfig{}.hostCores)
{
    sim::Simulator sim;
    ClusterConfig cfg = smallConfig(3, 32);
    cfg.hostCores = host_cores;
    ClusterB cluster(sim, cfg, model);
    DriverConfig dc;
    dc.requestsPerNode = 300;
    dc.workersPerNode = workers;
    dc.ycsb.numRecords = cfg.numRecords;
    dc.ycsb.seed = 2024;
    RunResult res = runWorkload(sim, cluster, dc);
    return {sim.eventsExecuted(), sim.now(),
            res.writeLat.digest(),  res.readLat.digest(),
            res.writes,             res.reads,
            res.obsoleteWrites};
}

} // namespace

TEST_P(ModelTest, SeededRunsAreDeterministic)
{
    // Guards the event core (timing wheel, far heap, batched wakeups)
    // against ordering drift: the same seeded configuration must replay
    // identically, down to the event count and every latency sample.
    RunFingerprint a = runSeededB(GetParam());
    RunFingerprint b = runSeededB(GetParam());
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.completionTick, b.completionTick);
    EXPECT_TRUE(a == b);
}

TEST(Driver, ScopeIdsPackANodeOverItsSequence)
{
    ScopeIds first(0);
    EXPECT_EQ(first.next(), 1u);
    EXPECT_EQ(first.next(), 2u);
    ScopeIds last(63);
    for (std::uint64_t i = 1; i < ScopeIds::maxPerNode; ++i)
        last.next();
    // The last id of the last node fills all 32 bits.
    EXPECT_EQ(last.next(), 0xffffffffu);
    EXPECT_DEATH(last.next(), "scope ids are exhausted");
    EXPECT_DEATH(ScopeIds{64}, "node id below 64");

    DriverConfig dc;
    dc.requestsPerNode = 100;
    dc.scopeSize = 3;
    EXPECT_EQ(dc.scopesPerNode(4), 4u + 33u);
}

TEST(Driver, ZeroWorkersMeansOnePerHostCore)
{
    // DriverConfig::workersPerNode = 0 runs one worker per host core,
    // not a fixed count.
    RunFingerprint dflt = runSeededB(PersistModel::Synch, 0, 2);
    RunFingerprint two = runSeededB(PersistModel::Synch, 2, 2);
    EXPECT_EQ(dflt.eventsExecuted, two.eventsExecuted);
    EXPECT_TRUE(dflt == two);
}

// ---------------------------------------------------------------------
// The per-model follower tables every engine walks (models.hh)
// ---------------------------------------------------------------------

namespace {

using Steps = std::vector<FollowerStep>;

Steps
stepsOf(const FollowerSchedule &s)
{
    return Steps(s.begin(), s.end());
}

} // namespace

// The tables are constexpr: an engine may build them at compile time.
static_assert(appliedSchedule(PersistModel::Synch, false, false).size == 2);

TEST(FollowerTables, PinStepsAcksAndValEffects)
{
    using S = FollowerStep;
    using T = net::MsgType;
    struct Row
    {
        PersistModel model;
        Steps applied;
        Steps ackBeforePersist; ///< the durable ACK swapped ahead
        Steps duplicateAck;     ///< one more consistency ACK
        Steps obsolete;
        T ackC; ///< what an AckC step sends
    };
    const Steps split = {S::AwaitGlbVolatile, S::AckC, S::AwaitGlbDurable,
                         S::AckP};
    const Row rows[] = {
        {PersistModel::Synch, {S::Persist, S::AckC}, {S::AckC, S::Persist},
         {S::Persist, S::AckC, S::AckC},
         {S::AwaitGlbVolatile, S::AwaitGlbDurable, S::AckC}, T::ACK},
        {PersistModel::Strict, {S::AckC, S::Persist, S::AckP},
         {S::AckC, S::AckP, S::Persist},
         {S::AckC, S::AckC, S::Persist, S::AckP}, split, T::ACK_C},
        {PersistModel::REnf, {S::AckC, S::Persist, S::AckP},
         {S::AckC, S::AckP, S::Persist},
         {S::AckC, S::AckC, S::Persist, S::AckP}, split, T::ACK_C},
        {PersistModel::Event, {S::AckC, S::PersistLater},
         {S::AckC, S::PersistLater}, {S::AckC, S::AckC, S::PersistLater},
         {S::AwaitGlbVolatile, S::AckC}, T::ACK_C},
        {PersistModel::Scope, {S::AckC, S::PersistLater},
         {S::AckC, S::PersistLater}, {S::AckC, S::AckC, S::PersistLater},
         {S::AwaitGlbVolatile, S::AckC}, T::ACK_C_SC},
    };
    ASSERT_EQ(std::size(rows), allModels.size());
    for (const Row &r : rows) {
        SCOPED_TRACE(std::string(shortModelName(r.model)));
        EXPECT_EQ(stepsOf(appliedSchedule(r.model, false, false)),
                  r.applied);
        EXPECT_EQ(stepsOf(appliedSchedule(r.model, true, false)),
                  r.ackBeforePersist);
        EXPECT_EQ(stepsOf(appliedSchedule(r.model, false, true)),
                  r.duplicateAck);
        EXPECT_EQ(stepsOf(obsoleteSchedule(r.model)), r.obsolete);
        EXPECT_EQ(ackOf(r.model, S::AckC), r.ackC);
        EXPECT_EQ(ackOf(r.model, S::AckP), T::ACK_P);
    }

    struct ValRow
    {
        T type;
        bool glbVolatile, glbDurable, releasesRdLock;
    };
    const ValRow vals[] = {
        {T::VAL, true, true, true},
        {T::VAL_C, true, false, true},
        {T::VAL_C_SC, true, false, true},
        {T::VAL_P, false, true, false},
        {T::VAL_P_SC, false, false, false},
    };
    for (const ValRow &v : vals) {
        SCOPED_TRACE(net::msgTypeName(v.type));
        const ValEffect fx = valEffect(v.type);
        EXPECT_EQ(fx.raisesGlbVolatile, v.glbVolatile);
        EXPECT_EQ(fx.raisesGlbDurable, v.glbDurable);
        EXPECT_EQ(fx.releasesRdLock, v.releasesRdLock);
    }
}

// ---------------------------------------------------------------------
// The per-model coordinator table every engine and the checker walk
// ---------------------------------------------------------------------

namespace {

using CSteps = std::vector<CoordinatorStep>;

CSteps
stepsOf(const CoordinatorSchedule &s)
{
    return CSteps(s.begin(), s.end());
}

CSteps
stepsOf(const CoordinatorStep *from, const CoordinatorStep *to)
{
    return CSteps(from, to);
}

/** Each step's gate, one word per step: C for every consistency ACK,
 *  P for every ACK_P, L for the local persist, - for none. */
std::string
gatesOf(const CoordinatorSchedule &s)
{
    std::string out;
    for (const CoordinatorStep *at = s.begin(); at != s.end(); ++at) {
        const CoordinatorGate g = s.gateOf(at);
        if (at != s.begin())
            out += ' ';
        if (!g.acksC && !g.acksP && !g.localPersist)
            out += '-';
        if (g.acksC)
            out += 'C';
        if (g.acksP)
            out += 'P';
        if (g.localPersist)
            out += 'L';
    }
    return out;
}

} // namespace

static_assert(coordinatorSchedule(PersistModel::REnf, false).size == 8);

TEST(CoordinatorTables, PinStepsAndGates)
{
    using S = CoordinatorStep;
    struct Row
    {
        PersistModel model;
        CSteps steps;
        std::string gates;
        /** NodeO: the steps it runs at each Await's gate, then the VAL
         *  tail it runs after the vFIFO drain (gates included). */
        std::vector<CSteps> atGates;
        CSteps valTail;
    };
    const CSteps weak = {S::PersistLater, S::AwaitAcksC,
                         S::RaiseGlbVolatile, S::ReleaseRdLock, S::SendVal,
                         S::Return};
    const Row rows[] = {
        {PersistModel::Synch,
         {S::Persist, S::AwaitAcksC, S::RaiseGlbVolatile, S::RaiseGlbDurable,
          S::ReleaseRdLock, S::SendVal, S::Return},
         "- CL CL CL CL CL CL",
         {{S::RaiseGlbVolatile, S::RaiseGlbDurable, S::Return}},
         {S::ReleaseRdLock, S::SendVal, S::Return}},
        {PersistModel::Strict,
         {S::Persist, S::AwaitAcksC, S::RaiseGlbVolatile, S::ReleaseRdLock,
          S::SendVal, S::AwaitAcksP, S::RaiseGlbDurable, S::SendValP,
          S::Return},
         "- C C C C CPL CPL CPL CPL",
         {{S::RaiseGlbVolatile}, {S::RaiseGlbDurable, S::Return}},
         {S::ReleaseRdLock, S::SendVal, S::AwaitAcksP, S::RaiseGlbDurable,
          S::SendValP, S::Return}},
        {PersistModel::REnf,
         {S::PersistLater, S::AwaitAcksC, S::RaiseGlbVolatile, S::Return,
          S::AwaitAcksP, S::RaiseGlbDurable, S::ReleaseRdLock, S::SendVal},
         "- C C C CPL CPL CPL CPL",
         {{S::RaiseGlbVolatile, S::Return}, {S::RaiseGlbDurable}},
         {S::ReleaseRdLock, S::SendVal}},
        {PersistModel::Event, weak, "- C C C C C",
         {{S::RaiseGlbVolatile, S::Return}},
         {S::ReleaseRdLock, S::SendVal, S::Return}},
        {PersistModel::Scope, weak, "- C C C C C",
         {{S::RaiseGlbVolatile, S::Return}},
         {S::ReleaseRdLock, S::SendVal, S::Return}},
    };
    ASSERT_EQ(std::size(rows), allModels.size());
    for (const Row &r : rows) {
        SCOPED_TRACE(std::string(shortModelName(r.model)));
        const CoordinatorSchedule sched = coordinatorSchedule(r.model, false);
        EXPECT_EQ(stepsOf(sched), r.steps);
        EXPECT_EQ(gatesOf(sched), r.gates);

        // The mutation frees the RDLock ahead of the same steps and
        // gates.
        const CoordinatorSchedule early = coordinatorSchedule(r.model, true);
        CSteps early_steps = {S::ReleaseRdLock};
        early_steps.insert(early_steps.end(), r.steps.begin(),
                           r.steps.end());
        EXPECT_EQ(stepsOf(early), early_steps);
        EXPECT_EQ(gatesOf(early), "- " + r.gates);

        // NodeO walks the same rows.
        std::vector<CSteps> at_gates;
        for (const CoordinatorStep *g = sched.segmentEnd(sched.begin());
             g != sched.end(); g = sched.segmentEnd(g)) {
            CSteps here;
            for (const CoordinatorStep *s = g + 1; s != sched.segmentEnd(g);
                 ++s) {
                if (snic::NodeO::runsAtGate(*s))
                    here.push_back(*s);
            }
            at_gates.push_back(here);
        }
        EXPECT_EQ(at_gates, r.atGates);
        EXPECT_EQ(stepsOf(snic::NodeO::valTailOf(sched), sched.end()),
                  r.valTail);
        EXPECT_EQ(snic::NodeO::valTailOf(early),
                  early.end() - r.valTail.size());

        // The send steps' VALs.
        EXPECT_EQ(valOf(r.model, S::SendVal), valCType(r.model));
        EXPECT_EQ(valOf(r.model, S::SendValP), net::MsgType::VAL_P);
    }
}

TEST(ReplicaStore, GuardKeepsOnlyKeysWithTsWrInFlight)
{
    // Two local writes in flight on one key get distinct TS_WR; the
    // guard entry goes once the record reaches the newer one, after which
    // TS_WR follows the paper's volatileTS + 1 alone.
    ReplicaStore store(4);
    kv::Record &rec = store.at(2);
    const Timestamp a = store.makeWriteTs(2, rec, 1);
    const Timestamp b = store.makeWriteTs(2, rec, 1);
    EXPECT_EQ(a, (Timestamp{0, 1}));
    EXPECT_EQ(b, (Timestamp{1, 1}));
    EXPECT_EQ(store.guardedKeys(), 1u);
    store.apply(rec, 2, 10, a);
    EXPECT_EQ(store.guardedKeys(), 1u); // b not reached yet
    store.apply(rec, 2, 11, b);
    EXPECT_EQ(store.guardedKeys(), 0u);
    EXPECT_EQ(store.makeWriteTs(2, rec, 1), (Timestamp{2, 1}));

    // A newer remote write passing the local one drops the entry too.
    store.apply(rec, 2, 12, Timestamp{2, 3});
    EXPECT_EQ(store.guardedKeys(), 0u);
    EXPECT_EQ(store.makeWriteTs(2, rec, 1), (Timestamp{3, 1}));
    EXPECT_EQ(store.guardedKeys(), 1u);
}
