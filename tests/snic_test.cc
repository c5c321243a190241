/**
 * @file
 * Integration tests of the MINOS-O SmartNIC engine: FIFO semantics,
 * protocol correctness across all five models and all ablation
 * configurations, and the headline B-vs-O performance shape.
 */

#include <gtest/gtest.h>

#include "cluster_helpers.hh"
#include "snic/run.hh"

using namespace minos;
using namespace minos::simproto;
using namespace minos::test;
using minos::snic::ClusterO;
using minos::snic::NodeO;
using kv::Key;
using kv::NodeId;
using kv::Timestamp;
using kv::Value;

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
    expectConverged(cluster, 7);
    expectDurable(cluster, 7);
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
    expectConverged(cluster, 9);
    expectDurable(cluster, 9);
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
        expectConverged(cluster, k);
        expectDurable(cluster, k);
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
    expectConverged(cluster, 0);
    expectDurable(cluster, 0);
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
        expectConverged(cluster, k);
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

    RunResult rb = run({.engine = Engine::B, .cfg = cfg, .dc = dc}).result;
    RunResult ro = run({.engine = Engine::O, .cfg = cfg, .dc = dc}).result;

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

    auto spread = [&](Engine e) {
        double lo = 1e18, hi = 0;
        for (PersistModel m :
             {PersistModel::Synch, PersistModel::Strict,
              PersistModel::Event}) {
            RunResult r =
                run({.engine = e, .model = m, .cfg = cfg, .dc = dc}).result;
            lo = std::min(lo, r.writeLat.mean());
            hi = std::max(hi, r.writeLat.mean());
        }
        return hi / lo;
    };
    EXPECT_LT(spread(Engine::O), spread(Engine::B));
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
        expectConverged(cluster, k);
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
        expectConverged(cluster, k);
}

TEST(Fifo, UnlimitedFifoNotSlowerThanTiny)
{
    auto mean_with_size = [](int entries) {
        RunSpec spec{.engine = Engine::O};
        spec.cfg.numNodes = 5;
        spec.cfg.numRecords = 64;
        spec.cfg.vfifoEntries = entries;
        spec.cfg.dfifoEntries = entries;
        spec.dc.requestsPerNode = 200;
        spec.dc.workersPerNode = 5;
        spec.dc.ycsb.numRecords = spec.cfg.numRecords;
        return run(spec).result.writeLat.mean();
    };
    double tiny = mean_with_size(1);
    double unlimited = mean_with_size(0);
    EXPECT_LE(unlimited, tiny * 1.05);
}

TEST(Fifo, EventDurabilityLagIsSetByTheDfifoBandwidth)
{
    // Write-only <Lin,Event> offers ~5.3 M writes/s, and every node
    // persists all of them. A 5-entry dFIFO holds each entry for its
    // 1 295 ns write, so it admits at most ~3.86 M/s: the backlog of
    // keys awaiting their persist grows with the run. Unlimited, it
    // stays at a few keys (DESIGN.md §5e).
    auto lag_peaks = [](int dfifo_entries) {
        RunSpec spec{.engine = Engine::O, .model = PersistModel::Event};
        spec.cfg.dfifoEntries = dfifo_entries;
        spec.dc.requestsPerNode = 2000;
        spec.dc.ycsb.writeFraction = 1;
        return run(spec).durableLagPeak;
    };
    for (std::size_t peak : lag_peaks(5)) {
        EXPECT_GE(peak, 1313u);
        EXPECT_LE(peak, 1357u);
    }
    for (std::size_t peak : lag_peaks(0))
        EXPECT_EQ(peak, 4u);
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
    expectDurable(cluster, 1);
    expectDurable(cluster, 2);
}

TEST(ScopeO, PersistScopeRetiresItsTransaction)
{
    // As on MINOS-B: the [PERSIST]sc leaves no pending transaction,
    // and a late [ACK_P]sc neither revives it nor sends [VAL_P]sc again.
    sim::Simulator sim;
    ClusterO cluster(sim, smallConfig(), PersistModel::Scope);
    const net::ScopeId sc = 0x99;
    struct Scoped
    {
        static sim::Process
        run(ClusterO *c, net::ScopeId sc)
        {
            co_await c->clientWrite(0, 1, 10, sc);
            co_await c->persistScope(0, sc);
        }
    };
    sim.spawn(Scoped::run(&cluster, sc));
    sim.run();
    NodeO &coord = cluster.node(0);
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

TEST(NodeODeathTest, ValBeforeItsInvEnqueuePanics)
{
    // A follower acknowledges an INV only after its vFIFO enqueue, and
    // the coordinator sends the VAL only after every consistency ACK,
    // so a VAL never finds its INV's enqueue unfinished. Deliver one
    // inside the INV's vFIFO write latency (465 ns for 1 KB) anyway.
    auto run = [] {
        sim::Simulator sim;
        ClusterO cluster(sim, smallConfig(), PersistModel::Synch);
        NodeO &follower = cluster.node(1);
        net::Message inv;
        inv.type = net::MsgType::INV;
        inv.src = 0;
        inv.dst = 1;
        inv.key = 3;
        inv.tsWr = Timestamp{1, 0};
        inv.value = 30;
        net::Message val = inv;
        val.type = net::MsgType::VAL;
        val.sizeBytes = net::controlMsgBytes;
        sim.schedule(0, [&] { follower.deliver(inv); });
        sim.schedule(300, [&] { follower.deliver(val); });
        sim.run();
    };
    EXPECT_DEATH(run(), "before its INV's vFIFO enqueue");
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
    // (vFIFO/dFIFO drain loops and slot waits are heavy same-tick
    // wakeup users).
    RunFingerprintO a = runSeededO(GetParam());
    RunFingerprintO b = runSeededO(GetParam());
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.completionTick, b.completionTick);
    EXPECT_TRUE(a == b);
}
