/**
 * @file
 * Failure detection and recovery (paper §III-E) on the threaded
 * MINOS-B runtime: write, disconnect a node, watch the timeout detector
 * shrink the cluster, keep writing, then reconnect the node and watch
 * the designated node's durable state catch it up.
 *
 *   $ ./examples/failure_recovery
 */

#include <chrono>
#include <cstdio>
#include <thread>

#include "proto/tnode.hh"

using namespace minos;
using namespace minos::proto;

namespace {

void
printLiveness(ThreadedCluster &cluster)
{
    for (int n = 0; n < cluster.config().numNodes; ++n) {
        std::printf("  node %d live-mask: 0x%llx\n", n,
                    static_cast<unsigned long long>(
                        cluster.node(n).liveMask()));
    }
}

} // namespace

int
main()
{
    ThreadedConfig cfg;
    cfg.numNodes = 3;
    cfg.model = PersistModel::Synch;
    cfg.numRecords = 64;
    cfg.ackTimeout = std::chrono::milliseconds(50);
    ThreadedCluster cluster(cfg);

    std::printf("1. normal operation: write key=1 via node 0\n");
    cluster.node(0).write(1, 100);
    std::printf("   node 2 reads key=1 -> %llu\n",
                static_cast<unsigned long long>(
                    cluster.node(2).read(1)));

    std::printf("2. disconnecting node 2 (crash injection)\n");
    cluster.failNode(2);

    std::printf("3. next write times out on node 2, declares it "
                "failed, and completes\n");
    cluster.node(0).write(1, 200);
    cluster.node(1).write(2, 300);
    printLiveness(cluster);

    std::printf("4. reconnecting node 2: JoinReq -> designated node "
                "ships its durable state -> apply\n");
    cluster.healAndRejoin(2);
    // Give the control plane a moment to ship and replay.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (std::chrono::steady_clock::now() < deadline) {
        const auto *r1 = cluster.node(2).record(1);
        const auto *r2 = cluster.node(2).record(2);
        if (r1 && r2 && r1->value.load() == 200 &&
            r2->value.load() == 300)
            break;
        std::this_thread::yield();
    }
    std::printf("   node 2 caught up: key=1 -> %llu, key=2 -> %llu\n",
                static_cast<unsigned long long>(
                    cluster.node(2).read(1)),
                static_cast<unsigned long long>(
                    cluster.node(2).read(2)));
    printLiveness(cluster);

    std::printf("5. new writes replicate to the rejoined node again\n");
    cluster.node(0).write(3, 400);
    std::printf("   node 2 reads key=3 -> %llu\n",
                static_cast<unsigned long long>(
                    cluster.node(2).read(3)));

    auto db = cluster.node(2).durableDb();
    std::printf("6. node 2 durable state: key1=%llu key2=%llu "
                "key3=%llu (all recovered)\n",
                static_cast<unsigned long long>(db[1].value),
                static_cast<unsigned long long>(db[2].value),
                static_cast<unsigned long long>(db[3].value));
    return 0;
}
