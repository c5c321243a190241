/**
 * @file
 * Figure 12: impact of the MINOS-O optimizations on average write
 * latency under a 100%-write <Lin,Synch> workload, normalized to
 * MINOS-B. Configurations:
 *   B, B+bcast, B+batch, Combined (offload+coherence+no-WRLock),
 *   Combined+bcast, Combined+batch, MINOS-O (all).
 *
 * Expected shape: bcast/batch alone have no noticeable effect;
 * Combined cuts write latency by ~43%; Combined+bcast is about the
 * same as Combined; Combined+batch is *slower* than Combined (the SNIC
 * must unpack the batch per destination); MINOS-O (all three) is best,
 * ~50% below MINOS-B.
 */

#include "bench_util.hh"

using namespace minos;
using namespace minos::bench;
using namespace minos::simproto;

namespace {

struct Config
{
    const char *name;
    bool offload;
    bool batching;
    bool broadcast;
};

const std::vector<Config> configs = {
    {"MINOS-B", false, false, false},
    {"B+bcast", false, false, true},
    {"B+batch", false, true, false},
    {"Offl+Coh+WRLock (Combined)", true, false, false},
    {"Combined+bcast", true, false, true},
    {"Combined+batch", true, true, false},
    {"MINOS-O (all)", true, true, true},
};

std::vector<double> latencies(configs.size(), 0.0);

void
runPoint(std::size_t idx)
{
    const Config &c = configs[idx];
    ClusterConfig cfg = paperConfig();
    DriverConfig dc = paperDriver(cfg, /*write_fraction=*/1.0);
    OffloadOptions opts;
    opts.batching = c.batching;
    opts.broadcast = c.broadcast;
    RunResult res = c.offload ? runO(cfg, PersistModel::Synch, dc, opts)
                              : runB(cfg, PersistModel::Synch, dc, opts);
    recordRunMetrics(std::string("fig12.cfg") + std::to_string(idx), res);
    latencies[idx] = res.writeLat.mean();
}

void
printTable()
{
    printBanner("Figure 12",
                "MINOS-O optimization ablation, write latency "
                "normalized to MINOS-B (<Lin,Synch>, 100% writes)");
    stats::Table t({"configuration", "norm. write latency",
                    "reduction vs B"});
    double base = latencies[0];
    for (std::size_t i = 0; i < configs.size(); ++i) {
        t.addRow({configs[i].name,
                  stats::Table::fmt(latencies[i] / base),
                  stats::Table::fmt(100.0 * (1.0 - latencies[i] / base),
                                    1) +
                      "%"});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("Paper shape: Combined ~-43%%; Combined+batch slower "
                "than Combined; MINOS-O ~-51%%.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    for (std::size_t i = 0; i < configs.size(); ++i)
        timePoint(std::string("Fig12/") + configs[i].name,
                  [i] { runPoint(i); });
    printTable();
    printMetricsBlob("fig12");
    return 0;
}
