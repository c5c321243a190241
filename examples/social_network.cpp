/**
 * @file
 * Microservice scenario (paper §VIII-C): the DeathStarBench
 * UserService.Login function of the Social Network and Media
 * Microservices applications, running its GET/SET sequence through
 * MINOS on a 16-node cluster with a 500 us datacenter round trip.
 *
 *   $ ./examples/social_network
 */

#include <cstdio>

#include "snic/run.hh"

using namespace minos;
using namespace minos::simproto;

int
main()
{
    ClusterConfig cfg;
    cfg.numNodes = 16;

    MicroserviceConfig mc;
    mc.invocationsPerNode = 10;
    mc.workersPerNode = 2;
    mc.numRecords = cfg.numRecords;

    stats::Table table({"application", "engine", "mean e2e (us)",
                        "p99 e2e (us)"});

    for (const auto &spec : {workload::socialNetworkLogin(),
                             workload::mediaMicroservicesLogin()}) {
        double b_mean = 0;
        for (Engine e : {Engine::B, Engine::O}) {
            const MicroserviceResult res =
                *run({.engine = e, .cfg = cfg, .micro = {{spec, mc}}}).micro;
            if (e == Engine::B)
                b_mean = res.e2eLat.mean();
            table.addRow({spec.app + " " + spec.function,
                          std::string("MINOS-") + engineName(e),
                          stats::Table::fmt(res.e2eLat.mean() / 1e3),
                          stats::Table::fmt(
                              static_cast<double>(res.e2eLat.p99()) /
                              1e3)});
            if (e == Engine::O) {
                std::printf("%s: offload cuts end-to-end latency by "
                            "%.1f%%\n",
                            spec.app.c_str(),
                            100.0 *
                                (1.0 - res.e2eLat.mean() / b_mean));
            }
        }
    }

    std::printf("\n16 nodes, <Lin,Synch>, 500us service RTT "
                "(paper Fig. 11 setup)\n\n%s\n",
                table.str().c_str());
    return 0;
}
