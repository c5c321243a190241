/**
 * @file
 * Tests of the threaded MINOS-B runtime: the paper's algorithms under
 * real thread concurrency — replication, conflicting writers,
 * linearizable read-after-write, scope persistence, and the §III-E
 * failure-detection + recovery path.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "proto/tnode.hh"

using namespace minos;
using namespace minos::proto;
using kv::Key;
using kv::NodeId;
using kv::Timestamp;
using kv::Value;

namespace {

ThreadedConfig
smallConfig(PersistModel model, int nodes = 3)
{
    ThreadedConfig cfg;
    cfg.numNodes = nodes;
    cfg.model = model;
    cfg.numRecords = 256;
    // Keep the emulated persist short so tests stay fast.
    cfg.persistNsPerKb = 300;
    cfg.wireLatency = std::chrono::microseconds(1);
    cfg.ackTimeout = std::chrono::milliseconds(200);
    return cfg;
}

/** Wait (bounded) until a predicate holds; returns success. */
template <typename Pred>
bool
eventually(Pred &&pred,
           std::chrono::milliseconds limit = std::chrono::seconds(5))
{
    auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::yield();
    }
    return pred();
}

void
expectReplicated(ThreadedCluster &cluster, Key key, Value value,
                 Timestamp ts)
{
    for (int n = 0; n < cluster.config().numNodes; ++n) {
        const kv::AtomicRecord *rec =
            cluster.node(static_cast<NodeId>(n)).record(key);
        ASSERT_NE(rec, nullptr) << "node " << n;
        EXPECT_EQ(rec->value.load(), value) << "node " << n;
        EXPECT_EQ(rec->loadVolatileTs(), ts) << "node " << n;
    }
}

} // namespace

class TModelTest : public ::testing::TestWithParam<PersistModel>
{
};

INSTANTIATE_TEST_SUITE_P(AllModels, TModelTest,
                         ::testing::ValuesIn(simproto::allModels),
                         [](const auto &info) {
                             return std::string(
                                 simproto::shortModelName(info.param));
                         });

TEST_P(TModelTest, SingleWriteReplicates)
{
    ThreadedCluster cluster(smallConfig(GetParam()));
    WriteResult res = cluster.node(0).write(7, 1234);
    EXPECT_FALSE(res.obsolete);
    EXPECT_EQ(res.ts, (Timestamp{0, 0}));
    expectReplicated(cluster, 7, 1234, res.ts);
    // Every replica releases its RDLock once the VALs land.
    EXPECT_TRUE(eventually([&] {
        for (int n = 0; n < 3; ++n) {
            const auto *rec = cluster.node(n).record(7);
            if (!rec || !rec->loadRdLockOwner().isNone())
                return false;
        }
        return true;
    }));
}

TEST_P(TModelTest, ReadAfterWriteIsLinearizable)
{
    ThreadedCluster cluster(smallConfig(GetParam()));
    // Once the write response returns, a read anywhere must see the
    // value (Lin consistency).
    cluster.node(1).write(3, 42);
    for (int n = 0; n < 3; ++n)
        EXPECT_EQ(cluster.node(n).read(3), 42u) << "node " << n;
}

TEST_P(TModelTest, SequentialWritesMonotonicVersions)
{
    ThreadedCluster cluster(smallConfig(GetParam()));
    auto r1 = cluster.node(0).write(5, 100);
    auto r2 = cluster.node(1).write(5, 200);
    auto r3 = cluster.node(2).write(5, 300);
    EXPECT_LT(r1.ts, r2.ts);
    EXPECT_LT(r2.ts, r3.ts);
    expectReplicated(cluster, 5, 300, r3.ts);
}

TEST_P(TModelTest, DurableAtQuiescence)
{
    ThreadedCluster cluster(smallConfig(GetParam()));
    cluster.node(0).write(9, 77);
    if (GetParam() == PersistModel::Scope)
        cluster.node(0).persistScope(0);
    // Background persisters may still be draining.
    EXPECT_TRUE(eventually([&] {
        for (int n = 0; n < 3; ++n) {
            auto db = cluster.node(n).durableDb();
            auto it = db.find(9);
            if (it == db.end() || it->second.value != 77u)
                return false;
        }
        return true;
    }));
}

TEST_P(TModelTest, ConcurrentWritersFromAllNodesConverge)
{
    ThreadedCluster cluster(smallConfig(GetParam()));
    constexpr int writes_per_node = 30;
    std::vector<std::thread> clients;
    for (int n = 0; n < 3; ++n) {
        clients.emplace_back([&cluster, n] {
            for (int i = 0; i < writes_per_node; ++i) {
                // Everyone hammers the same small key range.
                cluster.node(n).write(
                    static_cast<Key>(i % 4),
                    static_cast<Value>(n * 1000 + i));
            }
        });
    }
    for (auto &t : clients)
        t.join();

    // All replicas converge per key (volatileTS equal and RDLock free).
    EXPECT_TRUE(eventually([&] {
        for (Key k = 0; k < 4; ++k) {
            const auto *r0 = cluster.node(0).record(k);
            if (!r0)
                return false;
            auto ts = r0->loadVolatileTs();
            for (int n = 0; n < 3; ++n) {
                const auto *rec = cluster.node(n).record(k);
                if (!rec || rec->loadVolatileTs() != ts ||
                    !rec->loadRdLockOwner().isNone())
                    return false;
                if (rec->value.load() != r0->value.load())
                    return false;
            }
        }
        return true;
    }));
}

TEST_P(TModelTest, ConcurrentSameKeyWritersProduceUniqueTimestamps)
{
    ThreadedCluster cluster(smallConfig(GetParam()));
    constexpr int threads = 4, per_thread = 20;
    std::mutex mu;
    std::set<Timestamp> seen;
    std::vector<std::thread> clients;
    for (int t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
            NodeId node = static_cast<NodeId>(t % 3);
            for (int i = 0; i < per_thread; ++i) {
                auto res = cluster.node(node).write(0, 1);
                std::lock_guard<std::mutex> guard(mu);
                EXPECT_TRUE(seen.insert(res.ts).second)
                    << "duplicate TS_WR " << res.ts;
            }
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(threads * per_thread));
}

TEST_P(TModelTest, StaleInvIsCutAsObsolete)
{
    ThreadedCluster cluster(smallConfig(GetParam()));
    const Key key = 11;
    cluster.node(0).write(key, 1);
    WriteResult w = cluster.node(0).write(key, 2);
    ASSERT_FALSE(w.obsolete);
    // Node 2 has validated the write: its VAL raised glb_volatileTS and
    // freed the RDLock.
    ASSERT_TRUE(eventually([&] {
        const auto *rec = cluster.node(2).record(key);
        return rec && rec->loadGlbVolatileTs() >= w.ts &&
               rec->loadRdLockOwner().isNone();
    }));
    ASSERT_EQ(cluster.node(2).obsoleteInvs(), 0u);

    // An INV older than the validated write, as from a slow coordinator
    // on node 1; its ACKs reach node 1 as strays.
    net::Message inv;
    inv.type = simproto::invType(GetParam());
    inv.src = 1;
    inv.dst = 2;
    inv.key = key;
    inv.tsWr = Timestamp{w.ts.version - 1, 1};
    inv.value = 999;
    cluster.fabric().send(inv);

    EXPECT_TRUE(
        eventually([&] { return cluster.node(2).obsoleteInvs() == 1; }));
    expectReplicated(cluster, key, 2, w.ts);
    EXPECT_TRUE(eventually([&] {
        return cluster.node(2).record(key)->loadRdLockOwner().isNone();
    }));
}

TEST(ThreadedStore, EveryRecordStartsFreshAndKeysAreBounded)
{
    ThreadedConfig cfg = smallConfig(PersistModel::Synch);
    ThreadedCluster cluster(cfg);
    for (int n = 0; n < cfg.numNodes; ++n) {
        const ThreadedNode &node = cluster.node(static_cast<NodeId>(n));
        for (Key k = 0; k < cfg.numRecords; ++k) {
            const kv::AtomicRecord *rec = node.record(k);
            ASSERT_NE(rec, nullptr) << "node " << n << " key " << k;
            EXPECT_TRUE(rec->loadVolatileTs().isNone());
            EXPECT_TRUE(rec->loadRdLockOwner().isNone());
            EXPECT_TRUE(rec->loadGlbVolatileTs().isNone());
            EXPECT_TRUE(rec->loadGlbDurableTs().isNone());
            EXPECT_EQ(rec->value.load(), 0u);
        }
        EXPECT_EQ(node.record(cfg.numRecords), nullptr) << "node " << n;
    }
}

TEST(ThreadedScope, PersistScopeMakesScopeDurable)
{
    ThreadedCluster cluster(smallConfig(PersistModel::Scope));
    cluster.node(0).write(1, 10, /*scope=*/5);
    cluster.node(0).write(2, 20, /*scope=*/5);
    cluster.node(0).persistScope(5);
    // After [PERSIST]sc returns, both writes are durable on all nodes.
    for (int n = 0; n < 3; ++n) {
        auto db = cluster.node(n).durableDb();
        ASSERT_TRUE(db.count(1)) << "node " << n;
        ASSERT_TRUE(db.count(2)) << "node " << n;
        EXPECT_EQ(db[1].value, 10u);
        EXPECT_EQ(db[2].value, 20u);
    }
}

TEST(ThreadedScope, PersistScopeLeavesNoScopeEntries)
{
    // A scope's persist count is dropped at zero, so scopes that were
    // written and persisted leave no entry behind on any node (once the
    // background persisters have drained).
    ThreadedCluster cluster(smallConfig(PersistModel::Scope));
    for (net::ScopeId sc = 1; sc <= 3; ++sc) {
        cluster.node(0).write(sc, 10 * sc, sc);
        cluster.node(1).write(sc + 10, 20 * sc, sc);
        cluster.node(0).persistScope(sc);
    }
    for (int n = 0; n < 3; ++n)
        EXPECT_TRUE(eventually([&] {
            return cluster.node(n).scopesPersisting() == 0;
        })) << "node " << n << ": "
            << cluster.node(n).scopesPersisting() << " scopes";
}

TEST(ThreadedRecovery, WritesSurviveNodeFailure)
{
    auto cfg = smallConfig(PersistModel::Synch);
    cfg.ackTimeout = std::chrono::milliseconds(30);
    ThreadedCluster cluster(cfg);

    cluster.node(0).write(1, 11);
    cluster.failNode(2);

    // The next write times out on node 2, declares it failed, and
    // completes against the shrunken live set.
    auto res = cluster.node(0).write(1, 22);
    EXPECT_FALSE(res.obsolete);
    EXPECT_FALSE(recovery::isLive(cluster.node(0).liveMask(), 2));
    EXPECT_EQ(cluster.node(0).read(1), 22u);
    EXPECT_EQ(cluster.node(1).read(1), 22u);

    // Node 1 learns about the failure via the control plane.
    EXPECT_TRUE(eventually(
        [&] { return !recovery::isLive(cluster.node(1).liveMask(), 2); }));
}

TEST(ThreadedRecovery, RejoinCatchesUpViaLogShipping)
{
    auto cfg = smallConfig(PersistModel::Synch);
    cfg.ackTimeout = std::chrono::milliseconds(30);
    ThreadedCluster cluster(cfg);

    cluster.node(0).write(1, 11);
    cluster.failNode(2);
    cluster.node(0).write(1, 22); // triggers detection
    cluster.node(1).write(2, 33);
    cluster.node(0).write(3, 44);

    cluster.healAndRejoin(2);

    // Node 2 replays the designated node's log and converges.
    EXPECT_TRUE(eventually([&] {
        const auto *r1 = cluster.node(2).record(1);
        const auto *r2 = cluster.node(2).record(2);
        const auto *r3 = cluster.node(2).record(3);
        return r1 && r2 && r3 && r1->value.load() == 22u &&
               r2->value.load() == 33u && r3->value.load() == 44u;
    }));
    // Its durable state matches too.
    auto db = cluster.node(2).durableDb();
    EXPECT_EQ(db[1].value, 22u);
    EXPECT_EQ(db[2].value, 33u);
    EXPECT_EQ(db[3].value, 44u);
    // And everyone sees it live again.
    EXPECT_TRUE(eventually([&] {
        return recovery::isLive(cluster.node(0).liveMask(), 2) &&
               recovery::isLive(cluster.node(1).liveMask(), 2) &&
               recovery::isLive(cluster.node(2).liveMask(), 2);
    }));
}

TEST(ThreadedRecovery, RejoinAfterOverwritesMatchesDesignatedNode)
{
    // Two nodes overwrite a few keys many times while node 2 is down.
    // The designated node keeps one durable entry per key, and the
    // rejoiner ends with exactly its durable state, each record's
    // volatile TS at its durable TS.
    constexpr Key keys = 5;
    constexpr int writes = 300;
    for (PersistModel model : simproto::allModels) {
        SCOPED_TRACE(simproto::shortModelName(model));
        auto cfg = smallConfig(model);
        cfg.ackTimeout = std::chrono::milliseconds(30);
        ThreadedCluster cluster(cfg);
        cluster.failNode(2);
        std::vector<std::thread> writers;
        for (NodeId n = 0; n < 2; ++n) {
            writers.emplace_back([&cluster, n] {
                for (int i = 0; i < writes; ++i)
                    cluster.node(n).write(
                        static_cast<Key>(i) % keys,
                        static_cast<Value>(n * writes + i));
            });
        }
        for (auto &w : writers)
            w.join();

        // Quiet: the designated node has persisted what it applied.
        ThreadedNode &designated = cluster.node(0);
        ASSERT_TRUE(eventually([&] {
            const nvm::DurableDb db = designated.durableDb();
            for (Key k = 0; k < keys; ++k)
                if (!db.contains(k) ||
                    db.at(k).ts != designated.record(k)->loadVolatileTs())
                    return false;
            return true;
        }));
        const nvm::DurableDb want = designated.durableDb();
        EXPECT_EQ(want.size(), keys);

        cluster.healAndRejoin(2);
        ThreadedNode &rejoined = cluster.node(2);
        EXPECT_TRUE(eventually([&] {
            const nvm::DurableDb got = rejoined.durableDb();
            if (got.size() != want.size())
                return false;
            for (const auto &[k, rec] : want) {
                const auto it = got.find(k);
                if (it == got.end() || it->second.value != rec.value ||
                    it->second.ts != rec.ts)
                    return false;
            }
            return true;
        }));
        for (Key k = 0; k < cfg.numRecords; ++k) {
            const auto it = want.find(k);
            EXPECT_EQ(rejoined.record(k)->loadVolatileTs(),
                      it == want.end() ? Timestamp::none() : it->second.ts)
                << "key " << k;
        }
    }
}

TEST(ThreadedRecovery, RejoinedNodeParticipatesInNewWrites)
{
    auto cfg = smallConfig(PersistModel::Synch);
    cfg.ackTimeout = std::chrono::milliseconds(30);
    ThreadedCluster cluster(cfg);

    cluster.failNode(2);
    cluster.node(0).write(1, 11); // detection
    cluster.healAndRejoin(2);
    ASSERT_TRUE(eventually(
        [&] { return recovery::isLive(cluster.node(0).liveMask(), 2); }));

    // A new write must replicate to the rejoined node.
    auto res = cluster.node(0).write(5, 55);
    EXPECT_TRUE(eventually([&] {
        const auto *rec = cluster.node(2).record(5);
        return rec && rec->value.load() == 55u &&
               rec->loadVolatileTs() == res.ts;
    }));
}

namespace {

/** A client-write on a key whose version guard is past the largest
 *  version a timestamp holds. */
void
writeAfterTopVersion()
{
    ThreadedCluster cluster(smallConfig(PersistModel::Synch));
    cluster.node(0).write(7, 1);
    auto *rec = const_cast<kv::AtomicRecord *>(cluster.node(0).record(7));
    rec->localVersionGuard.store(Timestamp::maxVersion + 1);
    cluster.node(0).write(7, 2);
}

} // namespace

TEST(ThreadedNodeDeathTest, WriteVersionOverflowPanics)
{
    EXPECT_DEATH(writeAfterTopVersion(), "TS_WR version overflow on key 7");
}

TEST(ThreadedNodeDeathTest, KeyOutOfRangePanics)
{
    EXPECT_DEATH(
        {
            ThreadedCluster cluster(smallConfig(PersistModel::Synch));
            cluster.node(0).write(256, 1);
        },
        "key out of range: 256");
}

TEST(ThreadedFabric, DropsTrafficWhenLinkDown)
{
    runtime::Fabric fabric(2, std::chrono::nanoseconds(0));
    net::Message m;
    m.src = 0;
    m.dst = 1;
    fabric.setLinkUp(1, false);
    fabric.send(m);
    EXPECT_EQ(fabric.dropped(), 1u);
    EXPECT_FALSE(fabric.poll(1).has_value());
    fabric.setLinkUp(1, true);
    fabric.send(m);
    EXPECT_TRUE(eventually([&] { return fabric.poll(1).has_value(); }));
}

TEST(ThreadedFabric, DeliversAfterLatency)
{
    runtime::Fabric fabric(2, std::chrono::microseconds(200));
    net::Message m;
    m.src = 0;
    m.dst = 1;
    auto t0 = std::chrono::steady_clock::now();
    fabric.send(m);
    while (!fabric.poll(1).has_value())
        std::this_thread::yield();
    auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_GE(elapsed, std::chrono::microseconds(200));
}
