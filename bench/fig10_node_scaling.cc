/**
 * @file
 * Figure 10: normalized latency and throughput of writes (a) and reads
 * (b) for MINOS-B and MINOS-O at 2/4/6/8/10 nodes (50/50 zipfian mix).
 * Normalization: MINOS-B <Lin,Synch> at 2 nodes.
 *
 * Expected shape: as nodes increase, MINOS-B's latency grows quickly
 * and throughput stays roughly flat; MINOS-O's throughput scales with
 * node count while latency grows only modestly (writes) or not at all
 * (reads).
 */

#include "bench_util.hh"

using namespace minos;
using namespace minos::bench;
using namespace minos::simproto;

namespace {

const std::vector<int> nodeCounts = {2, 4, 6, 8, 10};

struct Point
{
    PersistModel model;
    bool offload;
    int nodes;
    double writeLat, readLat, writeTput, readTput;
};

std::vector<Point> points;

void
runPoint(PersistModel model, bool offload, int nodes)
{
    ClusterConfig cfg = paperConfig(nodes);
    DriverConfig dc = paperDriver(cfg);
    dc.requestsPerNode = benchRequestsPerNode(600);
    RunResult res = offload ? runO(cfg, model, dc) : runB(cfg, model, dc);
    recordRunMetrics(std::string("fig10.") +
                         std::string(shortModelName(model)) +
                         (offload ? ".o.n" : ".b.n") +
                         std::to_string(nodes),
                     res);
    points.push_back(Point{model, offload, nodes, res.writeLat.mean(),
                           res.readLat.mean(), res.writeThroughput(),
                           res.readThroughput()});
}

const Point *
find(PersistModel m, bool off, int nodes)
{
    for (const auto &p : points)
        if (p.model == m && p.offload == off && p.nodes == nodes)
            return &p;
    return nullptr;
}

void
printTable()
{
    const Point *base = find(PersistModel::Synch, false, 2);
    MINOS_ASSERT(base, "baseline point missing");

    auto emit = [&](const char *title, auto lat_of, auto tput_of,
                    double lat_base, double tput_base) {
        printBanner("Figure 10", title);
        stats::Table t({"model", "engine", "2", "4", "6", "8", "10"});
        for (PersistModel m : allModels) {
            for (bool off : {false, true}) {
                std::vector<std::string> lat_row = {
                    std::string(modelName(m)), off ? "O lat" : "B lat"};
                std::vector<std::string> tput_row = {
                    "", off ? "O tput" : "B tput"};
                for (int n : nodeCounts) {
                    const Point *p = find(m, off, n);
                    lat_row.push_back(
                        stats::Table::fmt(lat_of(p) / lat_base));
                    tput_row.push_back(
                        stats::Table::fmt(tput_of(p) / tput_base));
                }
                t.addRow(lat_row);
                t.addRow(tput_row);
            }
        }
        std::printf("%s\n", t.str().c_str());
    };

    emit("(a) writes, normalized to B <Lin,Synch> @ 2 nodes",
         [](const Point *p) { return p->writeLat; },
         [](const Point *p) { return p->writeTput; }, base->writeLat,
         base->writeTput);
    emit("(b) reads, normalized to B <Lin,Synch> @ 2 nodes",
         [](const Point *p) { return p->readLat; },
         [](const Point *p) { return p->readTput; }, base->readLat,
         base->readTput);

    // Headline averages (paper: write/read latency 2.3x/3.1x lower for
    // O; throughput 2.4x higher).
    double wlat = 0, rlat = 0, tput = 0;
    int n = 0;
    for (PersistModel m : allModels) {
        for (int nodes : nodeCounts) {
            const Point *b = find(m, false, nodes);
            const Point *o = find(m, true, nodes);
            wlat += b->writeLat / o->writeLat;
            rlat += o->readLat > 0 ? b->readLat / o->readLat : 0;
            tput += (o->writeTput + o->readTput) /
                    (b->writeTput + b->readTput);
            ++n;
        }
    }
    std::printf("Average write-latency reduction (B/O): %.2fx "
                "(paper: ~2.3x)\n",
                wlat / n);
    std::printf("Average read-latency reduction (B/O): %.2fx "
                "(paper: ~3.1x)\n",
                rlat / n);
    std::printf("Average throughput gain (O/B): %.2fx (paper: ~2.4x)\n",
                tput / n);
}

} // namespace

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    for (PersistModel m : allModels)
        for (bool off : {false, true})
            for (int nodes : nodeCounts)
                timePoint(std::string("Fig10/") +
                              std::string(shortModelName(m)) +
                              (off ? "/O/n" : "/B/n") +
                              std::to_string(nodes),
                          [=] { runPoint(m, off, nodes); });
    printTable();
    printMetricsBlob("fig10");
    return 0;
}
