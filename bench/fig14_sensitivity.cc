/**
 * @file
 * Figure 14: write-transaction speedup of MINOS-O over MINOS-B under
 * (i) persist latency from 100 ns to 100 us per KB (Optane cache line
 * to SSD block), (ii) zipfian vs uniform keys, and (iii) database sizes
 * from 10 to 100 K records. <Lin,Synch>, 50/50 mix.
 *
 * Expected shape: speedups everywhere; they grow with the persist
 * latency (avg ~2.2x across the sweep) and sit around ~2x for both key
 * distributions and all database sizes.
 */

#include "bench_util.hh"

using namespace minos;
using namespace minos::bench;
using namespace minos::simproto;

namespace {

struct Point
{
    std::string group;
    std::string label;
    double speedup;
};

std::vector<Point> points;

double
speedupFor(const ClusterConfig &cfg, const DriverConfig &dc,
           const std::string &point)
{
    RunResult rb = runB(cfg, PersistModel::Synch, dc);
    RunResult ro = runO(cfg, PersistModel::Synch, dc);
    recordRunMetrics("fig14." + point + ".b", rb);
    recordRunMetrics("fig14." + point + ".o", ro);
    return rb.writeLat.mean() / ro.writeLat.mean();
}

void
persistPoint(Tick ns_per_kb)
{
    ClusterConfig cfg = paperConfig();
    // Sweep the host NVM only: Table III fixes the SmartNIC dFIFO at its
    // own 1295 ns/KB write latency, which is exactly why the offload
    // benefit grows with slower host durable media.
    cfg.persistNsPerKb = ns_per_kb;
    DriverConfig dc = paperDriver(cfg);
    double s = speedupFor(cfg, dc, "persist" + std::to_string(ns_per_kb));
    points.push_back(
        {"persist latency", std::to_string(ns_per_kb) + " ns/KB", s});
}

void
distPoint(workload::KeyDist dist)
{
    const char *name =
        dist == workload::KeyDist::Zipfian ? "zipfian" : "uniform";
    ClusterConfig cfg = paperConfig();
    DriverConfig dc = paperDriver(cfg);
    dc.ycsb.dist = dist;
    points.push_back({"key distribution", name, speedupFor(cfg, dc, name)});
}

void
dbSizePoint(std::uint64_t records)
{
    ClusterConfig cfg = paperConfig();
    cfg.numRecords = records;
    DriverConfig dc = paperDriver(cfg);
    dc.ycsb.numRecords = records;
    double s = speedupFor(cfg, dc, "db" + std::to_string(records));
    points.push_back(
        {"database size", std::to_string(records) + " records", s});
}

void
printTable()
{
    printBanner("Figure 14",
                "MINOS-O speedup over MINOS-B for write transactions "
                "(<Lin,Synch>, 50/50)");
    stats::Table t({"group", "setting", "speedup (x)"});
    for (const auto &p : points)
        t.addRow({p.group, p.label, stats::Table::fmt(p.speedup)});
    std::printf("%s\n", t.str().c_str());
    std::printf("Paper shape: speedup grows with persist latency "
                "(avg ~2.2x); ~2x for both distributions and all DB "
                "sizes.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    for (Tick ns : {Tick{100}, Tick{1295}, Tick{10000}, Tick{100000}})
        timePoint("Fig14/persist_" + std::to_string(ns) + "ns",
                  [ns] { persistPoint(ns); });
    for (auto dist :
         {workload::KeyDist::Zipfian, workload::KeyDist::Uniform})
        timePoint(std::string("Fig14/dist_") +
                      (dist == workload::KeyDist::Zipfian ? "zipfian"
                                                          : "uniform"),
                  [dist] { distPoint(dist); });
    for (std::uint64_t recs : {10ull, 1000ull, 100000ull})
        timePoint("Fig14/db_" + std::to_string(recs),
                  [recs] { dbSizePoint(recs); });
    printTable();
    printMetricsBlob("fig14");
    return 0;
}
