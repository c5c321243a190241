/**
 * @file
 * Cross-engine property sweeps: every (engine x model x cluster size)
 * combination must preserve the protocol's convergence and durability
 * invariants under a conflicting workload, and the offloaded engine
 * must never be slower than the baseline under identical conditions.
 */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "simproto/cluster_b.hh"
#include "simproto/cluster_leader.hh"
#include "simproto/driver.hh"
#include "snic/cluster_o.hh"

using namespace minos;
using namespace minos::simproto;
using minos::snic::ClusterO;
using kv::Key;
using kv::NodeId;

namespace {

enum class Engine { Baseline, Offload, Leader };

const char *
engineName(Engine e)
{
    switch (e) {
      case Engine::Baseline: return "B";
      case Engine::Offload: return "O";
      case Engine::Leader: return "Leader";
    }
    return "?";
}

std::unique_ptr<DdpCluster>
makeCluster(sim::Simulator &sim, Engine engine,
            const ClusterConfig &cfg, PersistModel model)
{
    switch (engine) {
      case Engine::Baseline:
        return std::make_unique<ClusterB>(sim, cfg, model);
      case Engine::Offload:
        return std::make_unique<ClusterO>(sim, cfg, model);
      case Engine::Leader:
        return std::make_unique<ClusterLeader>(sim, cfg, model);
    }
    return nullptr;
}

/** Fetch a record from whichever engine backs the cluster. */
const kv::Record &
recordOf(DdpCluster &cluster, NodeId node, Key key)
{
    if (auto *b = dynamic_cast<ClusterB *>(&cluster))
        return b->node(node).record(key);
    if (auto *o = dynamic_cast<ClusterO *>(&cluster))
        return o->node(node).record(key);
    auto *l = dynamic_cast<ClusterLeader *>(&cluster);
    return l->node(node).record(key);
}

/** The WRLock is MINOS-B state; the other engines never take one. */
bool
wrLockHeld(DdpCluster &cluster, NodeId node, Key key)
{
    auto *b = dynamic_cast<ClusterB *>(&cluster);
    return b && b->node(node).wrLockHeld(key);
}

nvm::DurableDb
durableDbOf(DdpCluster &cluster, NodeId node)
{
    if (auto *b = dynamic_cast<ClusterB *>(&cluster))
        return b->node(node).durableDb();
    if (auto *o = dynamic_cast<ClusterO *>(&cluster))
        return o->node(node).durableDb();
    auto *l = dynamic_cast<ClusterLeader *>(&cluster);
    return l->node(node).durableDb();
}

} // namespace

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
    auto cluster = makeCluster(sim, engine, cfg, model);

    DriverConfig dc;
    dc.requestsPerNode = 120;
    dc.workersPerNode = 2;
    dc.ycsb.numRecords = cfg.numRecords;

    RunResult res = runWorkload(sim, *cluster, dc);
    EXPECT_EQ(res.writes + res.reads,
              static_cast<std::uint64_t>(nodes) * 120u);
    EXPECT_GT(res.totalThroughput(), 0.0);

    for (Key k = 0; k < cfg.numRecords; ++k) {
        const kv::Record &ref = recordOf(*cluster, 0, k);
        for (int n = 0; n < nodes; ++n) {
            const kv::Record &rec =
                recordOf(*cluster, static_cast<NodeId>(n), k);
            // Convergence: identical replicas, all locks released.
            EXPECT_TRUE(rec.rdLockFree()) << "n=" << n << " k=" << k;
            EXPECT_FALSE(wrLockHeld(*cluster, static_cast<NodeId>(n), k))
                << "n=" << n << " k=" << k;
            EXPECT_EQ(rec.value, ref.value) << "n=" << n << " k=" << k;
            EXPECT_EQ(rec.volatileTs, ref.volatileTs)
                << "n=" << n << " k=" << k;
            // Durability: the newest value is durable at quiescence.
            if (!rec.volatileTs.isNone()) {
                auto db =
                    durableDbOf(*cluster, static_cast<NodeId>(n));
                auto it = db.find(k);
                ASSERT_NE(it, db.end()) << "n=" << n << " k=" << k;
                EXPECT_EQ(it->second.ts, rec.volatileTs)
                    << "n=" << n << " k=" << k;
            }
        }
    }
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

    sim::Simulator sb;
    ClusterB b(sb, cfg, GetParam());
    RunResult rb = runWorkload(sb, b, dc);

    sim::Simulator so;
    ClusterO o(so, cfg, GetParam());
    RunResult ro = runWorkload(so, o, dc);

    EXPECT_LE(ro.writeLat.mean(), rb.writeLat.mean())
        << shortModelName(GetParam());
    EXPECT_GE(ro.totalThroughput(), rb.totalThroughput())
        << shortModelName(GetParam());
}

TEST(Determinism, IdenticalRunsProduceIdenticalResults)
{
    // The simulator is fully deterministic: same seed, same config =>
    // bit-identical latency series on both engines.
    for (int engine : {0, 1}) {
        auto run = [&] {
            sim::Simulator sim;
            ClusterConfig cfg;
            cfg.numNodes = 4;
            cfg.numRecords = 64;
            auto cluster = makeCluster(sim, static_cast<Engine>(engine),
                                       cfg, PersistModel::Strict);
            DriverConfig dc;
            dc.requestsPerNode = 150;
            dc.workersPerNode = 3;
            dc.ycsb.numRecords = cfg.numRecords;
            dc.keepSampleOrder = true;
            return runWorkload(sim, *cluster, dc);
        };
        RunResult a = run();
        RunResult b = run();
        EXPECT_EQ(a.duration, b.duration) << "engine " << engine;
        EXPECT_EQ(a.writeLat.samples(), b.writeLat.samples())
            << "engine " << engine;
        EXPECT_EQ(a.readLat.samples(), b.readLat.samples())
            << "engine " << engine;
        EXPECT_EQ(a.obsoleteWrites, b.obsoleteWrites)
            << "engine " << engine;
    }
}

TEST(ModelSemantics, ReadEnforcedGatesReadsLongerThanEventual)
{
    // REnf holds the RDLock until the write is persisted everywhere
    // (reads imply durability); Event releases it at the consistency
    // point. Under a write-heavy conflicting load, REnf reads must
    // therefore stall longer.
    auto read_lat = [](PersistModel m) {
        sim::Simulator sim;
        ClusterConfig cfg;
        cfg.numNodes = 5;
        cfg.numRecords = 4; // hot keys: reads frequently hit RDLocks
        ClusterB cluster(sim, cfg, m);
        DriverConfig dc;
        dc.requestsPerNode = 300;
        dc.workersPerNode = 5;
        dc.ycsb.numRecords = cfg.numRecords;
        dc.ycsb.writeFraction = 0.8;
        return runWorkload(sim, cluster, dc).readLat.mean();
    };
    EXPECT_GT(read_lat(PersistModel::REnf),
              read_lat(PersistModel::Event));
}

TEST(YcsbWorkloadF, ReadModifyWriteRunsOnBothEngines)
{
    for (int engine : {0, 1}) {
        sim::Simulator sim;
        ClusterConfig cfg;
        cfg.numNodes = 3;
        cfg.numRecords = 32;
        auto cluster = makeCluster(sim, static_cast<Engine>(engine),
                                   cfg, PersistModel::Synch);
        DriverConfig dc;
        dc.requestsPerNode = 100;
        dc.workersPerNode = 2;
        dc.ycsb = workload::ycsbPreset('F');
        dc.ycsb.numRecords = cfg.numRecords;
        RunResult res = runWorkload(sim, *cluster, dc);
        // Every RMW contributes one read and one write.
        EXPECT_GT(res.writes, 0u);
        EXPECT_GT(res.reads, res.writes); // pure reads + RMW reads
        for (Key k = 0; k < cfg.numRecords; ++k) {
            const kv::Record &ref = recordOf(*cluster, 0, k);
            for (int n = 1; n < 3; ++n)
                EXPECT_EQ(recordOf(*cluster, n, k).volatileTs,
                          ref.volatileTs);
        }
    }
}

TEST(ScopeTracking, ScopeRunEndsWithNoScopeEntries)
{
    // A node counts its scoped updates still persisting per scope and
    // drops a scope's entry when its count reaches zero; [PERSIST]sc's
    // wait reads an absent scope as flushed and adds none. So after a
    // Scope run no node tracks any scope.
    for (bool offload : {false, true}) {
        SCOPED_TRACE(offload ? "MINOS-O" : "MINOS-B");
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
        if (offload) {
            ClusterO cluster(sim, cfg, PersistModel::Scope);
            expectNone(cluster);
        } else {
            ClusterB cluster(sim, cfg, PersistModel::Scope);
            expectNone(cluster);
        }
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
    ClusterConfig cfg;
    cfg.numNodes = 6;
    cfg.numRecords = 512;
    DriverConfig dc;
    dc.requestsPerNode = 200;
    dc.workersPerNode = 3;
    dc.ycsb.numRecords = cfg.numRecords;

    sim::Simulator s1;
    ClusterB leaderless(s1, cfg, PersistModel::Synch);
    RunResult rl = runWorkload(s1, leaderless, dc);

    sim::Simulator s2;
    ClusterLeader leader(s2, cfg, PersistModel::Synch);
    RunResult rb = runWorkload(s2, leader, dc);

    // §II-A: leaderless delivers higher performance and is scalable.
    EXPECT_GT(rl.writeThroughput(), rb.writeThroughput());
    EXPECT_LT(rl.writeLat.mean(), rb.writeLat.mean());
}
