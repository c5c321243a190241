/**
 * @file
 * Figure 11: end-to-end latency of the DeathStarBench UserService.Login
 * function (Social Network and Media Microservices) on MINOS-B vs
 * MINOS-O, per model, on a 16-node cluster with a 500 us node-to-node
 * round trip. Normalization: B <Lin,Synch> Social.
 *
 * Expected shape: MINOS-O reduces the end-to-end latency across the
 * board, by ~35% on average.
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
    std::string app;
    double e2e;
};

std::vector<Point> points;

void
runPoint(PersistModel model, bool offload,
         const workload::FunctionSpec &spec)
{
    ClusterConfig cfg = paperConfig(16);
    MicroserviceConfig mc;
    mc.invocationsPerNode = 15;
    mc.workersPerNode = 2;
    mc.numRecords = cfg.numRecords;

    sim::Simulator sim;
    MicroserviceResult res = [&] {
        if (offload) {
            snic::ClusterO cluster(sim, cfg, model);
            return runMicroservice(sim, cluster, spec, mc);
        }
        ClusterB cluster(sim, cfg, model);
        return runMicroservice(sim, cluster, spec, mc);
    }();
    recordMicroMetrics(std::string("fig11.") +
                           std::string(shortModelName(model)) +
                           (offload ? ".o." : ".b.") + spec.app,
                       res);
    points.push_back(Point{model, offload, spec.app, res.e2eLat.mean()});
}

const Point *
find(PersistModel m, bool off, const std::string &app)
{
    for (const auto &p : points)
        if (p.model == m && p.offload == off && p.app == app)
            return &p;
    return nullptr;
}

void
printTable()
{
    const Point *base = find(PersistModel::Synch, false, "Social");
    MINOS_ASSERT(base, "baseline point missing");

    printBanner("Figure 11",
                "end-to-end Login latency, normalized to B "
                "<Lin,Synch> Social (16 nodes, 500us RTT)");
    stats::Table t({"model", "Social B", "Social O", "Media B",
                    "Media O"});
    double reduction = 0;
    int n = 0;
    for (PersistModel m : allModels) {
        std::vector<std::string> row = {std::string(modelName(m))};
        for (const char *app : {"Social", "Media"}) {
            const Point *b = find(m, false, app);
            const Point *o = find(m, true, app);
            row.push_back(stats::Table::fmt(b->e2e / base->e2e));
            row.push_back(stats::Table::fmt(o->e2e / base->e2e));
            reduction += 1.0 - o->e2e / b->e2e;
            ++n;
        }
        t.addRow(row);
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("Average end-to-end latency reduction: %.1f%% "
                "(paper: ~35%%)\n",
                100.0 * reduction / n);
}

} // namespace

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    const auto social = workload::socialNetworkLogin();
    const auto media = workload::mediaMicroservicesLogin();
    for (PersistModel m : allModels)
        for (bool off : {false, true})
            for (const auto &spec : {social, media})
                timePoint(std::string("Fig11/") +
                              std::string(shortModelName(m)) +
                              (off ? "/O/" : "/B/") + spec.app,
                          [&] { runPoint(m, off, spec); });
    printTable();
    printMetricsBlob("fig11");
    return 0;
}
