/**
 * @file
 * Figure 4: average MINOS-B write-transaction latency broken into
 * communication and computation time, per <consistency, persistency>
 * model (paper §IV).
 *
 * Expected shape: stricter persistency -> higher total latency (driven
 * by computation: persists in the critical path); communication is the
 * largest contributor at 51-73% of each model's write time.
 */

#include "bench_util.hh"

using namespace minos;
using namespace minos::bench;
using namespace minos::simproto;

namespace {

struct Fig4Row
{
    PersistModel model;
    double commUs;
    double compUs;
};

std::vector<Fig4Row> rows;

void
runPoint(PersistModel model)
{
    ClusterConfig cfg = paperConfig();
    DriverConfig dc = paperDriver(cfg);
    RunResult res = runB(cfg, model, dc);
    recordRunMetrics(std::string("fig04.") +
                         std::string(shortModelName(model)),
                     res);
    rows.push_back(Fig4Row{model, res.breakdown.meanComm() / 1e3,
                           res.breakdown.meanComp() / 1e3});
}

void
printTable()
{
    printBanner("Figure 4",
                "MINOS-B write latency: communication vs computation");
    stats::Table table({"model", "comm (us)", "comp (us)", "total (us)",
                        "comm %"});
    for (const auto &r : rows) {
        double total = r.commUs + r.compUs;
        table.addRow({std::string(modelName(r.model)),
                      stats::Table::fmt(r.commUs),
                      stats::Table::fmt(r.compUs),
                      stats::Table::fmt(total),
                      stats::Table::fmt(100.0 * r.commUs / total, 1)});
    }
    std::printf("%s\n", table.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    for (PersistModel m : allModels)
        timePoint(std::string("Fig04/") + std::string(shortModelName(m)),
                  [m] { runPoint(m); });
    printTable();
    printMetricsBlob("fig04");
    return 0;
}
