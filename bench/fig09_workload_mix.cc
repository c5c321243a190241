/**
 * @file
 * Figure 9: normalized latency and throughput of writes (a) and reads
 * (b) for MINOS-B and MINOS-O, per model, with 20/50/80/100% write
 * (read) mixes. Normalization: MINOS-B <Lin,Synch> at the 50% mix.
 *
 * Expected shape: MINOS-O cuts write/read latency ~2-3x and raises
 * throughput ~2-3x across all models and mixes, and is much less
 * sensitive to the persistency model than MINOS-B.
 */

#include "bench_util.hh"

using namespace minos;
using namespace minos::bench;
using namespace minos::simproto;

namespace {

struct Point
{
    PersistModel model;
    bool offload;
    int writePct;
    double writeLat, readLat, writeTput, readTput;
};

std::vector<Point> points;

void
runPoint(PersistModel model, bool offload, int write_pct)
{
    ClusterConfig cfg = paperConfig();
    DriverConfig dc = paperDriver(cfg, write_pct / 100.0);
    RunResult res = offload ? runO(cfg, model, dc) : runB(cfg, model, dc);
    recordRunMetrics(std::string("fig09.") +
                         std::string(shortModelName(model)) +
                         (offload ? ".o.w" : ".b.w") +
                         std::to_string(write_pct),
                     res);
    points.push_back(Point{model, offload, write_pct, res.writeLat.mean(),
                           res.readLat.mean(), res.writeThroughput(),
                           res.readThroughput()});
}

const Point *
find(PersistModel m, bool offload, int pct)
{
    for (const auto &p : points)
        if (p.model == m && p.offload == offload && p.writePct == pct)
            return &p;
    return nullptr;
}

void
printTable()
{
    const Point *base = find(PersistModel::Synch, false, 50);
    MINOS_ASSERT(base, "baseline point missing");

    printBanner("Figure 9(a)",
                "normalized write latency / throughput (base: "
                "B <Lin,Synch> 50% writes)");
    stats::Table wt({"model", "engine", "20%", "50%", "80%", "100%"});
    for (PersistModel m : allModels) {
        for (bool off : {false, true}) {
            std::vector<std::string> lat_row = {
                std::string(modelName(m)), off ? "O lat" : "B lat"};
            std::vector<std::string> tput_row = {"", off ? "O tput"
                                                         : "B tput"};
            for (int pct : {20, 50, 80, 100}) {
                const Point *p = find(m, off, pct);
                lat_row.push_back(
                    stats::Table::fmt(p->writeLat / base->writeLat));
                tput_row.push_back(
                    stats::Table::fmt(p->writeTput / base->writeTput));
            }
            wt.addRow(lat_row);
            wt.addRow(tput_row);
        }
    }
    std::printf("%s\n", wt.str().c_str());

    printBanner("Figure 9(b)",
                "normalized read latency / throughput (base: "
                "B <Lin,Synch> 50% reads)");
    stats::Table rt({"model", "engine", "20%", "50%", "80%", "100%"});
    // Read percentages mirror the write ones: X% reads = (100-X)% writes,
    // except 100% reads which we run as write fraction 0.
    for (PersistModel m : allModels) {
        for (bool off : {false, true}) {
            std::vector<std::string> lat_row = {
                std::string(modelName(m)), off ? "O lat" : "B lat"};
            std::vector<std::string> tput_row = {"", off ? "O tput"
                                                         : "B tput"};
            for (int read_pct : {20, 50, 80, 100}) {
                const Point *p = find(m, off, 100 - read_pct);
                lat_row.push_back(stats::Table::fmt(
                    p->readLat / base->readLat));
                tput_row.push_back(stats::Table::fmt(
                    p->readTput / base->readTput));
            }
            rt.addRow(lat_row);
            rt.addRow(tput_row);
        }
    }
    std::printf("%s\n", rt.str().c_str());

    // Headline averages (paper: O's write/read latency 2.1x/2.2x lower;
    // throughput 2.3x higher).
    double lat_ratio = 0, tput_ratio = 0;
    int n = 0;
    for (PersistModel m : allModels) {
        for (int pct : {20, 50, 80}) { // mixes with both ops present
            const Point *b = find(m, false, pct);
            const Point *o = find(m, true, pct);
            lat_ratio += b->writeLat / o->writeLat;
            tput_ratio += (b->writeTput + b->readTput) > 0
                              ? (o->writeTput + o->readTput) /
                                    (b->writeTput + b->readTput)
                              : 0;
            ++n;
        }
    }
    std::printf("Average write-latency reduction (B/O): %.2fx "
                "(paper: ~2.1x)\n",
                lat_ratio / n);
    std::printf("Average throughput gain (O/B): %.2fx (paper: ~2.3x)\n",
                tput_ratio / n);
}

} // namespace

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    for (PersistModel m : allModels)
        for (bool off : {false, true})
            for (int pct : {0, 20, 50, 80, 100})
                timePoint(std::string("Fig09/") +
                              std::string(shortModelName(m)) +
                              (off ? "/O/w" : "/B/w") +
                              std::to_string(pct),
                          [=] { runPoint(m, off, pct); });
    printTable();
    printMetricsBlob("fig09");
    return 0;
}
