/**
 * @file
 * Compare the five <Lin, persistency> DDP models side by side on both
 * engines: run the paper's default YCSB mix on a 5-node cluster and
 * print per-model write/read latency and throughput.
 *
 *   $ ./examples/persistency_models
 */

#include <cstdio>

#include "snic/run.hh"
#include "stats/stats.hh"

using namespace minos;
using namespace minos::simproto;

int
main()
{
    ClusterConfig cfg;
    DriverConfig dc;
    dc.requestsPerNode = 1000;
    dc.ycsb.numRecords = cfg.numRecords;

    stats::Table table({"model", "engine", "write lat (us)",
                        "read lat (us)", "throughput (Mops/s)",
                        "obsolete writes"});

    for (PersistModel m : allModels) {
        for (Engine e : {Engine::B, Engine::O}) {
            const RunResult res =
                run({.engine = e, .model = m, .cfg = cfg, .dc = dc}).result;
            table.addRow({std::string(modelName(m)),
                          std::string("MINOS-") + engineName(e),
                          stats::Table::fmt(res.writeLat.mean() / 1e3),
                          stats::Table::fmt(res.readLat.mean() / 1e3),
                          stats::Table::fmt(res.totalThroughput() / 1e6),
                          std::to_string(res.obsoleteWrites)});
        }
    }

    std::printf("5 nodes, 50%%/50%% zipfian YCSB, %llu requests/node "
                "(paper §VII defaults)\n\n%s\n",
                static_cast<unsigned long long>(dc.requestsPerNode),
                table.str().c_str());
    std::printf("Stricter persistency costs more on MINOS-B; MINOS-O "
                "is largely insensitive to the model (paper Fig. 9).\n");
    return 0;
}
