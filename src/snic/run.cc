#include "run.hh"

#include <algorithm>

namespace minos::simproto {

void
RunReport::registerResult(obs::MetricsRegistry &reg,
                          const std::string &prefix) const
{
    if (!micro)
        return registerRunMetrics(reg, prefix, result);
    if (!micro->e2eLat.empty())
        reg.histogram(prefix + "e2e_lat_ns", micro->e2eLat);
    obs::registerEventCore(reg, prefix + "sim.", micro->eventCore);
}

void
RunReport::registerInto(obs::MetricsRegistry &reg) const
{
    registerResult(reg, "run.");
    counters.registerInto(reg, "proto.");
    if (engine == Engine::O) {
        reg.gauge("snic.vfifo_peak", static_cast<double>(vfifoPeak));
        reg.gauge("snic.dfifo_peak", static_cast<double>(dfifoPeak));
        reg.counter("snic.vfifo_skipped", vfifoSkipped);
    }
    reg.gauge("nvm.durable_lag_peak",
              static_cast<double>(*std::max_element(
                  durableLagPeak.begin(), durableLagPeak.end())));
}

RunReport
run(const RunSpec &spec)
{
    sim::Simulator sim;
    auto runOn = [&](auto &cluster) {
        RunReport r;
        r.engine = spec.engine;
        if (spec.micro)
            r.micro = runMicroservice(sim, cluster, spec.micro->function,
                                      spec.micro->load);
        else
            r.result = runWorkload(sim, cluster, spec.dc);
        for (int n = 0; n < cluster.numNodes(); ++n) {
            const auto &node = cluster.node(n);
            r.counters += node.counters();
            r.durableLagPeak.push_back(node.log().peakLagging());
            if constexpr (requires { node.vfifo(); }) {
                r.vfifoPeak = std::max(r.vfifoPeak,
                                       node.vfifo().peakOccupancy());
                r.dfifoPeak = std::max(r.dfifoPeak,
                                       node.dfifo().peakOccupancy());
                r.vfifoSkipped += node.vfifo().skippedObsolete();
            }
        }
        return r;
    };
    return withCluster(sim, spec.engine, spec.cfg, spec.model, spec.opts,
                       runOn);
}

} // namespace minos::simproto
