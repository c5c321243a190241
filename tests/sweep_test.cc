/**
 * @file
 * Cross-engine property sweeps: every (engine x model x cluster size)
 * combination must preserve the protocol's convergence and durability
 * invariants under a conflicting workload, and the offloaded engine
 * must never be slower than the baseline under identical conditions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <type_traits>

#include "cluster_helpers.hh"
#include "snic/run.hh"

using namespace minos;
using namespace minos::simproto;
using minos::snic::ClusterO;
using kv::Key;
using kv::NodeId;

using SweepParam = std::tuple<int /*engine*/, PersistModel, int /*nodes*/>;

class SweepTest : public ::testing::TestWithParam<SweepParam>
{
};

INSTANTIATE_TEST_SUITE_P(
    EnginesModelsNodes, SweepTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::ValuesIn(allModels),
                       ::testing::Values(2, 4, 6)),
    [](const auto &info) {
        int e = std::get<0>(info.param);
        PersistModel m = std::get<1>(info.param);
        int n = std::get<2>(info.param);
        return std::string(engineName(static_cast<Engine>(e))) + "_" +
               std::string(shortModelName(m)) + "_" +
               std::to_string(n) + "nodes";
    });

TEST_P(SweepTest, ConflictingWorkloadConvergesAndPersists)
{
    auto [engine_int, model, nodes] = GetParam();
    Engine engine = static_cast<Engine>(engine_int);

    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = nodes;
    cfg.numRecords = 16; // small DB to force conflicts

    DriverConfig dc;
    dc.requestsPerNode = 120;
    dc.workersPerNode = 2;
    dc.ycsb.numRecords = cfg.numRecords;

    auto check = [&](auto &cluster) {
        RunResult res = runWorkload(sim, cluster, dc);
        EXPECT_EQ(res.writes + res.reads,
                  static_cast<std::uint64_t>(nodes) * 120u);
        EXPECT_GT(res.totalThroughput(), 0.0);
        // Identical replicas, all locks released, newest value durable.
        for (Key k = 0; k < cfg.numRecords; ++k) {
            test::expectConverged(cluster, k);
            test::expectDurable(cluster, k);
        }
    };
    withCluster(sim, engine, cfg, model, optionsFor(engine), check);
}

class OffloadWinsTest : public ::testing::TestWithParam<PersistModel>
{
};

INSTANTIATE_TEST_SUITE_P(AllModels, OffloadWinsTest,
                         ::testing::ValuesIn(allModels),
                         [](const auto &info) {
                             return std::string(
                                 shortModelName(info.param));
                         });

TEST_P(OffloadWinsTest, OffloadNeverSlowerThanBaseline)
{
    // Fig. 9/10 headline as a property: under identical configuration
    // and workload, MINOS-O's mean write latency must not exceed
    // MINOS-B's, and its throughput must not be lower.
    ClusterConfig cfg;
    cfg.numNodes = 5;
    cfg.numRecords = 512;
    DriverConfig dc;
    dc.requestsPerNode = 250;
    dc.workersPerNode = 5;
    dc.ycsb.numRecords = cfg.numRecords;

    auto runOn = [&](Engine e) {
        return run({.engine = e, .model = GetParam(), .cfg = cfg, .dc = dc})
            .result;
    };
    RunResult rb = runOn(Engine::B);
    RunResult ro = runOn(Engine::O);

    EXPECT_LE(ro.writeLat.mean(), rb.writeLat.mean())
        << shortModelName(GetParam());
    EXPECT_GE(ro.totalThroughput(), rb.totalThroughput())
        << shortModelName(GetParam());
}

TEST(Determinism, IdenticalRunsProduceIdenticalResults)
{
    // The simulator is fully deterministic: same seed, same config =>
    // bit-identical latency series on both engines.
    for (Engine engine : {Engine::B, Engine::O}) {
        SCOPED_TRACE(engineName(engine));
        RunSpec spec{.engine = engine, .model = PersistModel::Strict};
        spec.cfg.numNodes = 4;
        spec.cfg.numRecords = 64;
        spec.dc.requestsPerNode = 150;
        spec.dc.workersPerNode = 3;
        spec.dc.ycsb.numRecords = spec.cfg.numRecords;
        spec.dc.keepSampleOrder = true;
        RunResult a = run(spec).result;
        RunResult b = run(spec).result;
        EXPECT_EQ(a.duration, b.duration);
        EXPECT_EQ(a.writeLat.samples(), b.writeLat.samples());
        EXPECT_EQ(a.readLat.samples(), b.readLat.samples());
        EXPECT_EQ(a.obsoleteWrites, b.obsoleteWrites);
    }
}

TEST(ModelSemantics, ReadEnforcedGatesReadsLongerThanEventual)
{
    // REnf holds the RDLock until the write is persisted everywhere
    // (reads imply durability); Event releases it at the consistency
    // point. Under a write-heavy conflicting load, REnf reads must
    // therefore stall longer.
    auto read_lat = [](PersistModel m) {
        RunSpec spec{.engine = Engine::B, .model = m};
        spec.cfg.numNodes = 5;
        spec.cfg.numRecords = 4; // hot keys: reads frequently hit RDLocks
        spec.dc.requestsPerNode = 300;
        spec.dc.workersPerNode = 5;
        spec.dc.ycsb.numRecords = spec.cfg.numRecords;
        spec.dc.ycsb.writeFraction = 0.8;
        return run(spec).result.readLat.mean();
    };
    EXPECT_GT(read_lat(PersistModel::REnf),
              read_lat(PersistModel::Event));
}

TEST(YcsbWorkloadF, ReadModifyWriteRunsOnBothEngines)
{
    for (Engine engine : {Engine::B, Engine::O}) {
        sim::Simulator sim;
        ClusterConfig cfg;
        cfg.numNodes = 3;
        cfg.numRecords = 32;
        DriverConfig dc;
        dc.requestsPerNode = 100;
        dc.workersPerNode = 2;
        dc.ycsb = workload::ycsbPreset('F');
        dc.ycsb.numRecords = cfg.numRecords;
        auto check = [&](auto &cluster) {
            RunResult res = runWorkload(sim, cluster, dc);
            // Every RMW contributes one read and one write.
            EXPECT_GT(res.writes, 0u);
            EXPECT_GT(res.reads, res.writes); // pure reads + RMW reads
            for (Key k = 0; k < cfg.numRecords; ++k)
                test::expectConverged(cluster, k);
        };
        withCluster(sim, engine, cfg, PersistModel::Synch,
                    optionsFor(engine), check);
    }
}

TEST(ScopeTracking, ScopeRunEndsWithNoScopeEntries)
{
    // A node counts its scoped updates still persisting per scope and
    // drops a scope's entry when its count reaches zero; [PERSIST]sc's
    // wait reads an absent scope as flushed and adds none. So after a
    // Scope run no node tracks any scope.
    for (Engine engine : {Engine::B, Engine::O}) {
        SCOPED_TRACE(engineName(engine));
        sim::Simulator sim;
        ClusterConfig cfg;
        cfg.numNodes = 3;
        cfg.numRecords = 32;
        DriverConfig dc;
        dc.requestsPerNode = 200;
        dc.workersPerNode = 3;
        dc.ycsb.numRecords = cfg.numRecords;
        const auto expectNone = [&](auto &cluster) {
            RunResult res = runWorkload(sim, cluster, dc);
            EXPECT_GT(res.persistLat.count(), 0u);
            for (NodeId n = 0; n < cfg.numNodes; ++n)
                EXPECT_EQ(cluster.node(n).scopesPersisting(), 0u)
                    << "node " << n;
        };
        withCluster(sim, engine, cfg, PersistModel::Scope,
                    optionsFor(engine), expectNone);
    }
}

TEST(LeaderBaseline, ForwardedWritePaysRoundTrip)
{
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 3;
    cfg.numRecords = 8;
    ClusterLeader cluster(sim, cfg, PersistModel::Synch);

    struct P
    {
        static sim::Process
        run(ClusterLeader *c, OpStats *at_leader, OpStats *forwarded)
        {
            *at_leader = co_await c->clientWrite(0, 1, 10, 0);
            *forwarded = co_await c->clientWrite(2, 1, 20, 0);
        }
    };
    OpStats at_leader, forwarded;
    sim.spawn(P::run(&cluster, &at_leader, &forwarded));
    sim.run();
    // The forwarded write pays at least two extra one-way trips.
    EXPECT_GT(forwarded.latencyNs,
              at_leader.latencyNs + 2 * cfg.netLatencyNs);
    // And still replicates correctly.
    for (int n = 0; n < 3; ++n)
        EXPECT_EQ(cluster.node(n).record(1).value, 20u);
}

TEST(LeaderBaseline, LeaderlessOutperformsLeaderBased)
{
    auto runOn = [](Engine e) {
        RunSpec spec{.engine = e};
        spec.cfg.numNodes = 6;
        spec.cfg.numRecords = 512;
        spec.dc.requestsPerNode = 200;
        spec.dc.workersPerNode = 3;
        spec.dc.ycsb.numRecords = spec.cfg.numRecords;
        return run(spec).result;
    };
    RunResult rl = runOn(Engine::B);
    RunResult rb = runOn(Engine::Leader);

    // §II-A: leaderless delivers higher performance and is scalable.
    EXPECT_GT(rl.writeThroughput(), rb.writeThroughput());
    EXPECT_LT(rl.writeLat.mean(), rb.writeLat.mean());
}

namespace {

/** A small conflicting YCSB run (the RunPath tests). */
RunSpec
smallSpec(Engine engine, PersistModel model)
{
    RunSpec spec{.engine = engine, .model = model};
    spec.cfg.numNodes = 3;
    spec.cfg.numRecords = 16;
    spec.dc.requestsPerNode = 100;
    spec.dc.workersPerNode = 3;
    spec.dc.ycsb.numRecords = spec.cfg.numRecords;
    return spec;
}

/** run(@p spec)'s report must equal @p spec run on a ClusterT built
 *  here, with @p opts its constructor's last arguments. */
template <typename ClusterT, typename... Options>
RunReport
expectRunMatchesHandBuilt(const RunSpec &spec, Options... opts)
{
    const RunReport got = run(spec);
    sim::Simulator sim;
    ClusterT cluster(sim, spec.cfg, spec.model, opts...);
    const RunResult want = runWorkload(sim, cluster, spec.dc);
    EXPECT_EQ(got.result.writeLat.digest(), want.writeLat.digest());
    EXPECT_EQ(got.result.readLat.digest(), want.readLat.digest());
    EXPECT_EQ(got.result.persistLat.digest(), want.persistLat.digest());
    EXPECT_EQ(got.result.writes, want.writes);
    EXPECT_EQ(got.result.reads, want.reads);
    EXPECT_EQ(got.result.duration, want.duration);
    NodeCounters counters;
    std::size_t vfifo_peak = 0, dfifo_peak = 0;
    std::uint64_t skipped = 0;
    std::vector<std::size_t> lag_peaks;
    for (NodeId n = 0; n < spec.cfg.numNodes; ++n) {
        const auto &node = cluster.node(n);
        counters += node.counters();
        lag_peaks.push_back(node.log().peakLagging());
        if constexpr (std::is_same_v<ClusterT, ClusterO>) {
            vfifo_peak = std::max(vfifo_peak, node.vfifo().peakOccupancy());
            dfifo_peak = std::max(dfifo_peak, node.dfifo().peakOccupancy());
            skipped += node.vfifo().skippedObsolete();
        }
    }
    EXPECT_EQ(got.counters.str(), counters.str());
    EXPECT_EQ(got.vfifoPeak, vfifo_peak);
    EXPECT_EQ(got.dfifoPeak, dfifo_peak);
    EXPECT_EQ(got.vfifoSkipped, skipped);
    EXPECT_EQ(got.durableLagPeak, lag_peaks);
    return got;
}

} // namespace

TEST(RunPath, RunMatchesAHandBuiltCluster)
{
    for (PersistModel m : {PersistModel::Synch, PersistModel::Scope}) {
        SCOPED_TRACE(shortModelName(m));
        const RunReport b =
            expectRunMatchesHandBuilt<ClusterB>(smallSpec(Engine::B, m));
        EXPECT_GT(b.counters.persists, 0u);
        const RunReport o =
            expectRunMatchesHandBuilt<ClusterO>(smallSpec(Engine::O, m));
        EXPECT_GT(o.vfifoPeak, 0u);
        EXPECT_GT(o.dfifoPeak, 0u);
        expectRunMatchesHandBuilt<ClusterLeader>(
            smallSpec(Engine::Leader, m));
        // The spec's options reach the cluster.
        RunSpec unbatched = smallSpec(Engine::O, m);
        unbatched.opts.batching = false;
        expectRunMatchesHandBuilt<ClusterO>(unbatched, unbatched.opts);
    }
}

TEST(RunPath, MicroSpecMatchesAHandRunMicroservice)
{
    RunSpec spec = smallSpec(Engine::O, PersistModel::Scope);
    spec.micro = {workload::socialNetworkLogin(),
                  {.invocationsPerNode = 4,
                   .workersPerNode = 2,
                   .numRecords = spec.cfg.numRecords}};
    const RunReport got = run(spec);

    sim::Simulator sim;
    ClusterO cluster(sim, spec.cfg, spec.model);
    const MicroserviceResult want = runMicroservice(
        sim, cluster, spec.micro->function, spec.micro->load);
    ASSERT_TRUE(got.micro);
    EXPECT_EQ(got.micro->e2eLat.digest(), want.e2eLat.digest());
    EXPECT_EQ(got.micro->e2eLat.count(), 3u * 2u * 4u);
    EXPECT_EQ(got.micro->eventCore.eventsExecuted,
              want.eventCore.eventsExecuted);
}

TEST(RunPath, RegisterIntoEmitsSnicKeysOnOOnly)
{
    for (Engine e : {Engine::B, Engine::O, Engine::Leader}) {
        SCOPED_TRACE(engineName(e));
        obs::MetricsRegistry reg;
        run(smallSpec(e, PersistModel::Synch)).registerInto(reg);
        const std::string json = reg.json();
        for (const char *key :
             {"run.writes", "proto.persists", "nvm.durable_lag_peak"})
            EXPECT_NE(json.find(key), std::string::npos) << key;
        for (const char *key :
             {"snic.vfifo_peak", "snic.dfifo_peak", "snic.vfifo_skipped"})
            EXPECT_EQ(json.find(key) != std::string::npos, e == Engine::O)
                << key;
    }
}
