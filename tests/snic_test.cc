/**
 * @file
 * Integration tests of the MINOS-O SmartNIC engine: FIFO semantics,
 * protocol correctness across all five models and all ablation
 * configurations, and the headline B-vs-O performance shape.
 */

#include <gtest/gtest.h>

#include "simproto/cluster_b.hh"
#include "simproto/driver.hh"
#include "snic/cluster_o.hh"

using namespace minos;
using namespace minos::simproto;
using minos::snic::ClusterO;
using minos::snic::NodeO;
using kv::Key;
using kv::NodeId;
using kv::Timestamp;
using kv::Value;

namespace {

ClusterConfig
smallConfig(int nodes = 3, std::uint64_t records = 64)
{
    ClusterConfig cfg;
    cfg.numNodes = nodes;
    cfg.numRecords = records;
    return cfg;
}

sim::Process
doWrite(DdpCluster *c, NodeId n, Key k, Value v, OpStats *out)
{
    *out = co_await c->clientWrite(n, k, v, 0);
}

sim::Process
writeThenRemoteRead(DdpCluster *c, NodeId wr, NodeId rd, Key k, Value v,
                    OpStats *w_out, OpStats *r_out)
{
    *w_out = co_await c->clientWrite(wr, k, v, 0);
    *r_out = co_await c->clientRead(rd, k);
}

void
expectConvergedO(ClusterO &cluster, Key k)
{
    const kv::Record &ref = cluster.node(0).record(k);
    for (int n = 0; n < cluster.numNodes(); ++n) {
        const kv::Record &rec =
            cluster.node(static_cast<NodeId>(n)).record(k);
        EXPECT_TRUE(rec.rdLockFree()) << "node " << n << " key " << k;
        EXPECT_EQ(rec.value, ref.value) << "node " << n << " key " << k;
        EXPECT_EQ(rec.volatileTs, ref.volatileTs)
            << "node " << n << " key " << k;
        EXPECT_EQ(rec.glbVolatileTs, rec.volatileTs)
            << "node " << n << " key " << k;
    }
}

void
expectDurableO(ClusterO &cluster, Key k)
{
    for (int n = 0; n < cluster.numNodes(); ++n) {
        NodeO &node = cluster.node(static_cast<NodeId>(n));
        const kv::Record &rec = node.record(k);
        if (rec.volatileTs.isNone())
            continue;
        auto db = node.durableDb();
        auto it = db.find(k);
        ASSERT_NE(it, db.end()) << "node " << n << " key " << k;
        EXPECT_EQ(it->second.ts, rec.volatileTs)
            << "node " << n << " key " << k;
        EXPECT_EQ(it->second.value, rec.value)
            << "node " << n << " key " << k;
    }
}

} // namespace

class OModelTest : public ::testing::TestWithParam<PersistModel>
{
};

INSTANTIATE_TEST_SUITE_P(AllModels, OModelTest,
                         ::testing::ValuesIn(allModels),
                         [](const auto &info) {
                             return std::string(
                                 shortModelName(info.param));
                         });

TEST_P(OModelTest, SingleWriteReplicatesEverywhere)
{
    sim::Simulator sim;
    ClusterO cluster(sim, smallConfig(), GetParam());
    OpStats st;
    sim.spawn(doWrite(&cluster, 0, 7, 1234, &st));
    sim.run();
    EXPECT_FALSE(st.obsolete);
    EXPECT_GT(st.latencyNs, 0);
    for (int n = 0; n < 3; ++n)
        EXPECT_EQ(cluster.node(n).record(7).value, 1234u)
            << "node " << n;
    expectConvergedO(cluster, 7);
    expectDurableO(cluster, 7);
}

TEST_P(OModelTest, RemoteReadAfterWriteSeesValue)
{
    sim::Simulator sim;
    ClusterO cluster(sim, smallConfig(), GetParam());
    OpStats wr, rd;
    sim.spawn(writeThenRemoteRead(&cluster, 0, 2, 11, 777, &wr, &rd));
    sim.run();
    EXPECT_EQ(rd.value, 777u);
}

TEST_P(OModelTest, ConcurrentConflictingWritesConverge)
{
    sim::Simulator sim;
    ClusterO cluster(sim, smallConfig(), GetParam());
    constexpr int writers = 3;
    OpStats st[writers];
    for (int w = 0; w < writers; ++w)
        sim.spawn(doWrite(&cluster, static_cast<NodeId>(w), 9,
                          1000u + static_cast<Value>(w), &st[w]));
    sim.run();
    expectConvergedO(cluster, 9);
    expectDurableO(cluster, 9);
    for (int n = 0; n < 3; ++n)
        EXPECT_EQ(cluster.node(n).pendingTxns(), 0u) << "node " << n;
}

TEST_P(OModelTest, WorkloadRunConvergesAllKeys)
{
    sim::Simulator sim;
    ClusterConfig cfg = smallConfig(3, 32);
    ClusterO cluster(sim, cfg, GetParam());

    DriverConfig dc;
    dc.requestsPerNode = 200;
    dc.workersPerNode = 3;
    dc.ycsb.numRecords = cfg.numRecords;

    RunResult res = runWorkload(sim, cluster, dc);
    EXPECT_EQ(res.writes + res.reads, 600u);
    for (Key k = 0; k < cfg.numRecords; ++k) {
        expectConvergedO(cluster, k);
        expectDurableO(cluster, k);
    }
    for (int n = 0; n < 3; ++n)
        EXPECT_EQ(cluster.node(n).pendingTxns(), 0u) << "node " << n;
}

TEST_P(OModelTest, HotSingleKeyWorkloadConverges)
{
    sim::Simulator sim;
    ClusterConfig cfg = smallConfig(3, 1);
    ClusterO cluster(sim, cfg, GetParam());
    DriverConfig dc;
    dc.requestsPerNode = 100;
    dc.workersPerNode = 3;
    dc.ycsb.numRecords = 1;
    dc.ycsb.writeFraction = 1.0;
    RunResult res = runWorkload(sim, cluster, dc);
    EXPECT_EQ(res.writes, 300u);
    expectConvergedO(cluster, 0);
    expectDurableO(cluster, 0);
}

/** All four batching x broadcast combinations stay correct. */
class OAblationTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>>
{
};

INSTANTIATE_TEST_SUITE_P(
    Options, OAblationTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "batch" : "nobatch") +
               (std::get<1>(info.param) ? "_bcast" : "_nobcast");
    });

TEST_P(OAblationTest, ProtocolCorrectUnderAllFabricOptions)
{
    auto [batching, broadcast] = GetParam();
    sim::Simulator sim;
    ClusterConfig cfg = smallConfig(4, 16);
    OffloadOptions opts;
    opts.batching = batching;
    opts.broadcast = broadcast;
    ClusterO cluster(sim, cfg, PersistModel::Synch, opts);

    DriverConfig dc;
    dc.requestsPerNode = 100;
    dc.workersPerNode = 2;
    dc.ycsb.numRecords = cfg.numRecords;
    RunResult res = runWorkload(sim, cluster, dc);
    EXPECT_EQ(res.writes + res.reads, 400u);
    for (Key k = 0; k < cfg.numRecords; ++k)
        expectConvergedO(cluster, k);
}

TEST(ClusterOvsB, OffloadReducesWriteLatency)
{
    // The headline result (Fig. 9): MINOS-O cuts write latency by
    // roughly 2-3x over MINOS-B.
    ClusterConfig cfg;
    cfg.numNodes = 5;
    cfg.numRecords = 1024;

    DriverConfig dc;
    dc.requestsPerNode = 300;
    dc.workersPerNode = 5;
    dc.ycsb.numRecords = cfg.numRecords;

    sim::Simulator simB;
    ClusterB b(simB, cfg, PersistModel::Synch);
    RunResult rb = runWorkload(simB, b, dc);

    sim::Simulator simO;
    ClusterO o(simO, cfg, PersistModel::Synch);
    RunResult ro = runWorkload(simO, o, dc);

    EXPECT_GT(rb.writeLat.mean(), ro.writeLat.mean() * 1.5)
        << "B " << rb.writeLat.mean() << " O " << ro.writeLat.mean();
    EXPECT_GT(ro.totalThroughput(), rb.totalThroughput());
}

TEST(ClusterOvsB, OffloadLessSensitiveToPersistencyModel)
{
    // Fig. 9: MINOS-O is much less sensitive to the persistency model
    // than MINOS-B. The contrast appears at the paper's scale (5 nodes,
    // 5 busy cores) where host-core queueing amplifies B's critical-path
    // persists.
    ClusterConfig cfg;
    cfg.numNodes = 5;
    cfg.numRecords = 1024;
    DriverConfig dc;
    dc.requestsPerNode = 300;
    dc.workersPerNode = 5;
    dc.ycsb.numRecords = cfg.numRecords;

    auto spread = [&](auto make_cluster) {
        double lo = 1e18, hi = 0;
        for (PersistModel m :
             {PersistModel::Synch, PersistModel::Strict,
              PersistModel::Event}) {
            sim::Simulator sim;
            auto cluster = make_cluster(sim, m);
            RunResult r = runWorkload(sim, *cluster, dc);
            lo = std::min(lo, r.writeLat.mean());
            hi = std::max(hi, r.writeLat.mean());
        }
        return hi / lo;
    };

    double spread_b = spread([&](sim::Simulator &sim, PersistModel m) {
        return std::make_unique<ClusterB>(sim, cfg, m);
    });
    double spread_o = spread([&](sim::Simulator &sim, PersistModel m) {
        return std::make_unique<ClusterO>(sim, cfg, m);
    });
    EXPECT_LT(spread_o, spread_b);
}

TEST(Fifo, VFifoSkipsObsoleteEntries)
{
    sim::Simulator sim;
    ClusterConfig cfg = smallConfig();
    ClusterO cluster(sim, cfg, PersistModel::Synch);
    // Drive concurrent conflicting writes so out-of-order entries occur;
    // the store must never go backward in timestamp.
    DriverConfig dc;
    dc.requestsPerNode = 120;
    dc.workersPerNode = 3;
    dc.ycsb.numRecords = 2;
    dc.ycsb.writeFraction = 1.0;
    runWorkload(sim, cluster, dc);
    for (Key k = 0; k < 2; ++k)
        expectConvergedO(cluster, k);
    // At least one node must have skipped an obsolete vFIFO entry or
    // cut an obsolete INV short under this much conflict.
    std::uint64_t skipped = 0;
    for (int n = 0; n < 3; ++n) {
        skipped += cluster.node(n).vfifo().skippedObsolete();
        skipped += cluster.node(n).counters().invsObsolete;
    }
    EXPECT_GT(skipped, 0u);
}

TEST(Fifo, TinyFifoStillCorrect)
{
    // Fig. 13: a 1-entry FIFO is slower but must stay correct.
    sim::Simulator sim;
    ClusterConfig cfg = smallConfig(3, 16);
    cfg.vfifoEntries = 1;
    cfg.dfifoEntries = 1;
    ClusterO cluster(sim, cfg, PersistModel::Synch);
    DriverConfig dc;
    dc.requestsPerNode = 100;
    dc.workersPerNode = 3;
    dc.ycsb.numRecords = cfg.numRecords;
    RunResult res = runWorkload(sim, cluster, dc);
    EXPECT_EQ(res.writes + res.reads, 300u);
    for (Key k = 0; k < cfg.numRecords; ++k)
        expectConvergedO(cluster, k);
}

TEST(Fifo, UnlimitedFifoNotSlowerThanTiny)
{
    auto mean_with_size = [](int entries) {
        sim::Simulator sim;
        ClusterConfig cfg;
        cfg.numNodes = 5;
        cfg.numRecords = 64;
        cfg.vfifoEntries = entries;
        cfg.dfifoEntries = entries;
        ClusterO cluster(sim, cfg, PersistModel::Synch);
        DriverConfig dc;
        dc.requestsPerNode = 200;
        dc.workersPerNode = 5;
        dc.ycsb.numRecords = cfg.numRecords;
        return runWorkload(sim, cluster, dc).writeLat.mean();
    };
    double tiny = mean_with_size(1);
    double unlimited = mean_with_size(0);
    EXPECT_LE(unlimited, tiny * 1.05);
}

TEST(ScopeO, PersistScopeFlushesScope)
{
    sim::Simulator sim;
    ClusterConfig cfg = smallConfig();
    ClusterO cluster(sim, cfg, PersistModel::Scope);
    struct Scoped
    {
        static sim::Process
        run(ClusterO *c, OpStats *out)
        {
            net::ScopeId sc = 0x99;
            co_await c->clientWrite(0, 1, 10, sc);
            co_await c->clientWrite(0, 2, 20, sc);
            *out = co_await c->persistScope(0, sc);
        }
    };
    OpStats ps;
    sim.spawn(Scoped::run(&cluster, &ps));
    sim.run();
    EXPECT_GT(ps.latencyNs, 0);
    expectDurableO(cluster, 1);
    expectDurableO(cluster, 2);
}

namespace {

/** Determinism fingerprint of a seeded MINOS-O run. */
struct RunFingerprintO
{
    std::uint64_t eventsExecuted;
    Tick completionTick;
    std::uint64_t writeDigest;
    std::uint64_t readDigest;
    std::uint64_t writes, reads;

    bool operator==(const RunFingerprintO &) const = default;
};

RunFingerprintO
runSeededO(PersistModel model)
{
    sim::Simulator sim;
    ClusterConfig cfg = smallConfig(3, 32);
    ClusterO cluster(sim, cfg, model);
    DriverConfig dc;
    dc.requestsPerNode = 300;
    dc.workersPerNode = 3;
    dc.ycsb.numRecords = cfg.numRecords;
    dc.ycsb.seed = 2024;
    RunResult res = runWorkload(sim, cluster, dc);
    return {sim.eventsExecuted(), sim.now(), res.writeLat.digest(),
            res.readLat.digest(), res.writes, res.reads};
}

} // namespace

TEST_P(OModelTest, SeededRunsAreDeterministic)
{
    // Same guard as the MINOS-B variant, through the SmartNIC engine
    // (vFIFO/dFIFO drain loops are heavy ready-ring users).
    RunFingerprintO a = runSeededO(GetParam());
    RunFingerprintO b = runSeededO(GetParam());
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.completionTick, b.completionTick);
    EXPECT_TRUE(a == b);
}
