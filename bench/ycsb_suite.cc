/**
 * @file
 * Extension experiment: the standard YCSB core workloads (A
 * update-heavy, B read-mostly, C read-only, F read-modify-write) on
 * MINOS-B vs MINOS-O. The paper evaluates parameterized mixes (Fig. 9);
 * this harness covers the named industry presets, including RMW, which
 * stresses the read-lock/write interaction.
 *
 * Expected shape: MINOS-O wins everywhere writes exist; the gap closes
 * as the workload becomes read-dominated (reads are local in both
 * engines) and vanishes for workload C.
 */

#include "bench_util.hh"

using namespace minos;
using namespace minos::bench;
using namespace minos::simproto;

namespace {

struct Point
{
    char workload;
    bool offload;
    double writeLat, readLat, tput;
};

std::vector<Point> points;

void
runPoint(char wl, bool offload)
{
    ClusterConfig cfg = paperConfig();
    DriverConfig dc;
    dc.requestsPerNode = benchRequestsPerNode();
    dc.workersPerNode = cfg.hostCores;
    dc.ycsb = workload::ycsbPreset(wl);
    dc.ycsb.numRecords = cfg.numRecords;
    RunResult res = offload ? runO(cfg, PersistModel::Synch, dc)
                            : runB(cfg, PersistModel::Synch, dc);
    recordRunMetrics(std::string("ycsb.") + std::string(1, wl) +
                         (offload ? ".o" : ".b"),
                     res);
    points.push_back(Point{wl, offload, res.writeLat.mean(),
                           res.readLat.mean(), res.totalThroughput()});
}

const Point *
find(char wl, bool offload)
{
    for (const auto &p : points)
        if (p.workload == wl && p.offload == offload)
            return &p;
    return nullptr;
}

void
printTable()
{
    printBanner("YCSB core workloads (extension)",
                "A/B/C/F on MINOS-B vs MINOS-O, <Lin,Synch>, 5 nodes");
    stats::Table t({"workload", "engine", "write lat (us)",
                    "read lat (us)", "tput (Mops/s)", "O/B tput"});
    for (char wl : {'A', 'B', 'C', 'F'}) {
        const Point *b = find(wl, false);
        const Point *o = find(wl, true);
        for (bool off : {false, true}) {
            const Point *p = off ? o : b;
            t.addRow({std::string(1, wl), off ? "O" : "B",
                      p->writeLat > 0
                          ? stats::Table::fmt(p->writeLat / 1e3)
                          : "-",
                      stats::Table::fmt(p->readLat / 1e3),
                      stats::Table::fmt(p->tput / 1e6),
                      off ? stats::Table::fmt(o->tput / b->tput) : ""});
        }
    }
    std::printf("%s\n", t.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    for (char wl : {'A', 'B', 'C', 'F'})
        for (bool off : {false, true})
            timePoint(std::string("Ycsb/") + wl + (off ? "/O" : "/B"),
                      [=] { runPoint(wl, off); });
    printTable();
    printMetricsBlob("ycsb");
    return 0;
}
