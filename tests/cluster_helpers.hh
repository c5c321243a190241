/**
 * @file
 * Helpers shared by the engine tests: a small cluster configuration,
 * single-op client processes, and the quiescence checks (every replica
 * of a key agrees and is unlocked, and holds the newest value durably).
 * The checks are generic over the cluster type, so MINOS-B, MINOS-O and
 * the leader baseline share them (simproto::withCluster hands a test
 * its concrete cluster).
 */

#ifndef MINOS_TESTS_CLUSTER_HELPERS_HH
#define MINOS_TESTS_CLUSTER_HELPERS_HH

#include <gtest/gtest.h>

#include "simproto/cluster.hh"

namespace minos::test {

inline simproto::ClusterConfig
smallConfig(int nodes = 3, std::uint64_t records = 64)
{
    simproto::ClusterConfig cfg;
    cfg.numNodes = nodes;
    cfg.numRecords = records;
    return cfg;
}

/** Await a single cluster op from a fresh process. */
inline sim::Process
doWrite(simproto::DdpCluster *c, kv::NodeId n, kv::Key k, kv::Value v,
        simproto::OpStats *out)
{
    *out = co_await c->clientWrite(n, k, v, 0);
}

inline sim::Process
doRead(simproto::DdpCluster *c, kv::NodeId n, kv::Key k,
       simproto::OpStats *out)
{
    *out = co_await c->clientRead(n, k);
}

inline sim::Process
writeThenRemoteRead(simproto::DdpCluster *c, kv::NodeId wr_node,
                    kv::NodeId rd_node, kv::Key k, kv::Value v,
                    simproto::OpStats *write_out,
                    simproto::OpStats *read_out)
{
    *write_out = co_await c->clientWrite(wr_node, k, v, 0);
    // Linearizability: once the write response returned, a subsequent
    // read anywhere must see it (or something newer).
    *read_out = co_await c->clientRead(rd_node, k);
}

/** Cluster-wide convergence invariants of @p k at quiescence. */
template <typename ClusterT>
void
expectConverged(ClusterT &cluster, kv::Key k)
{
    const kv::Record &ref = cluster.node(0).record(k);
    for (kv::NodeId n = 0; n < cluster.numNodes(); ++n) {
        const auto &node = cluster.node(n);
        const kv::Record &rec = node.record(k);
        EXPECT_TRUE(rec.rdLockFree()) << "node " << n << " key " << k;
        // The WRLock is MINOS-B state; MINOS-O never takes one.
        if constexpr (requires { node.wrLockHeld(k); }) {
            EXPECT_FALSE(node.wrLockHeld(k))
                << "node " << n << " key " << k;
        }
        EXPECT_EQ(rec.value, ref.value) << "node " << n << " key " << k;
        EXPECT_EQ(rec.volatileTs, ref.volatileTs)
            << "node " << n << " key " << k;
        // Table I check 2a: when read-unlocked everywhere, volatileTS
        // and glb_volatileTS agree across all nodes.
        EXPECT_EQ(rec.glbVolatileTs, rec.volatileTs)
            << "node " << n << " key " << k;
    }
}

/** Durable state of @p k matches volatile state at quiescence. */
template <typename ClusterT>
void
expectDurable(ClusterT &cluster, kv::Key k)
{
    for (kv::NodeId n = 0; n < cluster.numNodes(); ++n) {
        const auto &node = cluster.node(n);
        const kv::Record &rec = node.record(k);
        if (rec.volatileTs.isNone())
            continue; // never written
        const auto db = node.durableDb();
        const auto it = db.find(k);
        ASSERT_NE(it, db.end()) << "node " << n << " key " << k;
        EXPECT_EQ(it->second.ts, rec.volatileTs)
            << "node " << n << " key " << k;
        EXPECT_EQ(it->second.value, rec.value)
            << "node " << n << " key " << k;
    }
}

} // namespace minos::test

#endif // MINOS_TESTS_CLUSTER_HELPERS_HH
