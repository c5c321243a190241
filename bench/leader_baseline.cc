/**
 * @file
 * Leaderless vs leader-based (paper §I/§II-A): the DDP protocols target
 * leaderless systems because they "deliver higher performance and are
 * scalable" compared to designs where one leader coordinates every
 * write. This harness quantifies that claim with the identical protocol
 * engine in both roles.
 *
 * Expected shape: leader-based write throughput plateaus near one
 * node's coordination capacity as the cluster grows, while the
 * leaderless engine keeps scaling; non-leader writes also pay a
 * forwarding round trip in latency.
 */

#include "bench_util.hh"

#include "simproto/cluster_leader.hh"

using namespace minos;
using namespace minos::bench;
using namespace minos::simproto;

namespace {

struct Point
{
    bool leaderless;
    int nodes;
    double writeLat;
    double writeTput;
};

std::vector<Point> points;

void
runPoint(bool leaderless, int nodes)
{
    ClusterConfig cfg = paperConfig(nodes);
    DriverConfig dc = paperDriver(cfg);
    dc.requestsPerNode = benchRequestsPerNode(600);
    sim::Simulator sim;
    RunResult res;
    if (leaderless) {
        ClusterB cluster(sim, cfg, PersistModel::Synch);
        res = runWorkload(sim, cluster, dc);
    } else {
        ClusterLeader cluster(sim, cfg, PersistModel::Synch);
        res = runWorkload(sim, cluster, dc);
    }
    recordRunMetrics(std::string("leader.") +
                         (leaderless ? "leaderless.n" : "leader.n") +
                         std::to_string(nodes),
                     res);
    points.push_back(Point{leaderless, nodes, res.writeLat.mean(),
                           res.writeThroughput()});
}

const Point *
find(bool leaderless, int nodes)
{
    for (const auto &p : points)
        if (p.leaderless == leaderless && p.nodes == nodes)
            return &p;
    return nullptr;
}

void
printTable()
{
    printBanner("Leaderless vs leader-based",
                "write latency / throughput, <Lin,Synch>, 50/50, "
                "normalized to leader-based @ 2 nodes");
    const Point *base = find(false, 2);
    MINOS_ASSERT(base, "baseline point missing");
    stats::Table t({"design", "metric", "2", "4", "6", "8"});
    for (bool leaderless : {false, true}) {
        std::vector<std::string> lat = {
            leaderless ? "leaderless (MINOS-B)" : "leader-based",
            "latency"};
        std::vector<std::string> tput = {"", "throughput"};
        for (int n : {2, 4, 6, 8}) {
            const Point *p = find(leaderless, n);
            lat.push_back(stats::Table::fmt(p->writeLat /
                                            base->writeLat));
            tput.push_back(stats::Table::fmt(p->writeTput /
                                             base->writeTput));
        }
        t.addRow(lat);
        t.addRow(tput);
    }
    std::printf("%s\n", t.str().c_str());
    const Point *l8 = find(false, 8);
    const Point *f8 = find(true, 8);
    std::printf("At 8 nodes the leaderless design delivers %.2fx the "
                "leader-based write throughput.\n",
                f8->writeTput / l8->writeTput);
}

} // namespace

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    for (bool leaderless : {false, true})
        for (int nodes : {2, 4, 6, 8})
            timePoint(std::string("Leader/") +
                          (leaderless ? "leaderless/n" : "leader/n") +
                          std::to_string(nodes),
                      [=] { runPoint(leaderless, nodes); });
    printTable();
    printMetricsBlob("leader");
    return 0;
}
