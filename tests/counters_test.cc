/**
 * @file
 * Message-complexity properties via the protocol counters: the paper's
 * algorithms have a precise per-write message budget (one INV + one VAL
 * per follower from the coordinator; one ACK-family response per
 * follower), which must hold exactly in conflict-free runs.
 */

#include <gtest/gtest.h>

#include "snic/run.hh"

using namespace minos;
using namespace minos::simproto;
using kv::NodeId;

namespace {

sim::Process
nWrites(DdpCluster *c, NodeId node, int n)
{
    for (int i = 0; i < n; ++i)
        co_await c->clientWrite(node, static_cast<kv::Key>(i), 1, 0);
}

} // namespace

TEST(Counters, BaselineMessageBudgetPerWrite)
{
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 4;
    cfg.numRecords = 64;
    ClusterB cluster(sim, cfg, PersistModel::Synch);

    constexpr int writes = 20;
    sim.spawn(nWrites(&cluster, 0, writes)); // distinct keys: no conflict
    sim.run();

    const NodeCounters &coord = cluster.node(0).counters();
    EXPECT_EQ(coord.writesCoordinated, writes);
    EXPECT_EQ(coord.writesObsoleteCut, 0u);
    // <Lin,Synch>: per write, (N-1) INVs and (N-1) VALs out, (N-1) ACKs
    // back in.
    EXPECT_EQ(coord.invsSent, writes * 3u);
    EXPECT_EQ(coord.valsSent, writes * 3u);
    EXPECT_EQ(coord.acksReceived, writes * 3u);
    EXPECT_EQ(coord.persists, writes);

    for (int n = 1; n < 4; ++n) {
        const NodeCounters &f = cluster.node(n).counters();
        EXPECT_EQ(f.invsReceived, writes) << "node " << n;
        EXPECT_EQ(f.acksSent, writes) << "node " << n;
        EXPECT_EQ(f.valsReceived, writes) << "node " << n;
        EXPECT_EQ(f.invsObsolete, 0u) << "node " << n;
        EXPECT_EQ(f.persists, writes) << "node " << n;
        // Each INV snatches the (free) RDLock once.
        EXPECT_EQ(f.rdLockSnatches, writes) << "node " << n;
    }
}

TEST(Counters, StrictDoublesTheAckBudget)
{
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 3;
    cfg.numRecords = 64;
    ClusterB cluster(sim, cfg, PersistModel::Strict);
    constexpr int writes = 10;
    sim.spawn(nWrites(&cluster, 0, writes));
    sim.run();
    // Strict: each follower sends ACK_C and ACK_P per write.
    EXPECT_EQ(cluster.node(0).counters().acksReceived, writes * 2u * 2u);
    // And the coordinator sends VAL_C + VAL_P fan-outs.
    EXPECT_EQ(cluster.node(0).counters().valsSent, writes * 2u * 2u);
}

TEST(Counters, EventSkipsPersistencyMessages)
{
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 3;
    cfg.numRecords = 64;
    ClusterB cluster(sim, cfg, PersistModel::Event);
    constexpr int writes = 10;
    sim.spawn(nWrites(&cluster, 0, writes));
    sim.run();
    // Event: single ACK_C per follower per write; persists still happen
    // (in the background) on every node.
    EXPECT_EQ(cluster.node(0).counters().acksReceived, writes * 2u);
    EXPECT_EQ(cluster.node(0).counters().valsSent, writes * 2u);
    for (int n = 0; n < 3; ++n)
        EXPECT_EQ(cluster.node(n).counters().persists, writes)
            << "node " << n;
}

TEST(Counters, OffloadEngineCountsTheSameProtocolWork)
{
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 4;
    cfg.numRecords = 64;
    snic::ClusterO cluster(sim, cfg, PersistModel::Synch);
    constexpr int writes = 15;
    sim.spawn(nWrites(&cluster, 0, writes));
    sim.run();
    const auto &coord = cluster.node(0).counters();
    EXPECT_EQ(coord.writesCoordinated, writes);
    EXPECT_EQ(coord.invsSent, writes * 3u);
    EXPECT_EQ(coord.acksReceived, writes * 3u);
    for (int n = 1; n < 4; ++n) {
        EXPECT_EQ(cluster.node(n).counters().invsReceived, writes)
            << "node " << n;
        EXPECT_EQ(cluster.node(n).counters().acksSent, writes)
            << "node " << n;
    }
}

namespace {

/** Cluster-wide counters of @p spec's engine, model and options on
 *  one conflicting seeded run. */
NodeCounters
clusterCounters(RunSpec spec)
{
    spec.cfg.numNodes = 3;
    spec.cfg.numRecords = 64;
    spec.dc.requestsPerNode = 300;
    spec.dc.workersPerNode = 3;
    spec.dc.ycsb.numRecords = spec.cfg.numRecords;
    spec.dc.ycsb.seed = 2024;
    return run(spec).counters;
}

void
expectConserved(const NodeCounters &c)
{
    EXPECT_GT(c.invsSent, 0u);
    EXPECT_EQ(c.invsSent, c.invsReceived);
    EXPECT_EQ(c.acksSent, c.acksReceived);
    EXPECT_EQ(c.valsSent, c.valsReceived);
}

} // namespace

// A fault-free fabric loses and duplicates nothing, so every message a
// node counts as sent is counted as received somewhere: obsolete INVs,
// [PERSIST]sc ACKs and [VAL_P]sc fan-outs included.
TEST(Counters, FaultFreeRunsConserveMessages)
{
    for (PersistModel m : allModels) {
        SCOPED_TRACE(std::string(modelName(m)));
        expectConserved(clusterCounters({.engine = Engine::B, .model = m}));
        expectConserved(clusterCounters({.engine = Engine::O, .model = m}));
        RunSpec no_batch{.engine = Engine::O, .model = m};
        no_batch.opts.batching = false;
        expectConserved(clusterCounters(no_batch));
    }
}

TEST(Counters, AggregationAndRendering)
{
    NodeCounters a, b;
    a.invsSent = 3;
    a.persists = 1;
    b.invsSent = 2;
    b.acksReceived = 7;
    a += b;
    EXPECT_EQ(a.invsSent, 5u);
    EXPECT_EQ(a.acksReceived, 7u);
    EXPECT_EQ(a.persists, 1u);
    std::string s = a.str();
    EXPECT_NE(s.find("INV 5"), std::string::npos);
    EXPECT_NE(s.find("persists 1"), std::string::npos);
}
