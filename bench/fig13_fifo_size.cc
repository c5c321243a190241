/**
 * @file
 * Figure 13: sensitivity of MINOS-O's average write latency to the
 * vFIFO/dFIFO size (1, 2, 3, 4, 5, 100 entries), normalized to
 * unlimited entries. <Lin,Synch>, 50/50 mix.
 *
 * Expected shape: 1-2 entries cost extra latency (arriving INV bursts
 * stall on enqueue); with 3-5 entries the latency is essentially the
 * same as with unlimited entries.
 */

#include "bench_util.hh"

using namespace minos;
using namespace minos::bench;
using namespace minos::simproto;

namespace {

// 0 encodes "unlimited".
const std::vector<int> sizes = {1, 2, 3, 4, 5, 100, 0};

std::vector<double> latencies(sizes.size(), 0.0);

void
runPoint(std::size_t idx)
{
    ClusterConfig cfg = paperConfig();
    cfg.vfifoEntries = sizes[idx];
    cfg.dfifoEntries = sizes[idx];
    DriverConfig dc = paperDriver(cfg);
    RunResult res = runO(cfg, PersistModel::Synch, dc);
    recordRunMetrics(std::string("fig13.entries") +
                         (sizes[idx] == 0 ? std::string("_unlimited")
                                          : std::to_string(sizes[idx])),
                     res);
    latencies[idx] = res.writeLat.mean();
}

void
printTable()
{
    printBanner("Figure 13",
                "MINOS-O write latency vs FIFO size, normalized to "
                "unlimited entries (<Lin,Synch>, 50/50)");
    stats::Table t({"vFIFO/dFIFO entries", "norm. write latency"});
    double unlimited = latencies.back();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        std::string label =
            sizes[i] == 0 ? "unlimited" : std::to_string(sizes[i]);
        t.addRow({label, stats::Table::fmt(latencies[i] / unlimited)});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("Paper shape: 3-5 entries attain (approximately) the "
                "unlimited-FIFO latency.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    for (std::size_t i = 0; i < sizes.size(); ++i)
        timePoint(std::string("Fig13/entries_") +
                      (sizes[i] == 0 ? "unlimited"
                                     : std::to_string(sizes[i])),
                  [i] { runPoint(i); });
    printTable();
    printMetricsBlob("fig13");
    return 0;
}
