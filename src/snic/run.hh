/**
 * @file
 * The one run path of `minos-sim`, the figures, the tests and the
 * examples. `withCluster` alone maps an engine to its cluster type and
 * hands the cluster to a (usually generic) lambda at that static type;
 * `run` runs a `RunSpec` and collects what the nodes hold afterwards.
 * Observers stay the caller's, wired through `cfg.trace`, `cfg.audit`
 * and `cfg.phases`.
 */

#ifndef MINOS_SNIC_RUN_HH
#define MINOS_SNIC_RUN_HH

#include <optional>
#include <vector>

#include "common/logging.hh"
#include "simproto/cluster_leader.hh"
#include "simproto/driver.hh"
#include "snic/cluster_o.hh"

namespace minos::simproto {

/** MINOS-B, MINOS-O and the leader-based baseline. */
enum class Engine { B, O, Leader };

/** "B", "O" or "Leader". */
inline const char *
engineName(Engine e)
{
    return e == Engine::B ? "B" : e == Engine::O ? "O" : "Leader";
}

/** The engine's own message options (Leader runs MINOS-B's). */
inline OffloadOptions
optionsFor(Engine e)
{
    return e == Engine::O ? OffloadOptions::minosO()
                          : OffloadOptions::minosB();
}

/**
 * Build @p engine's cluster on @p sim and return @p fn(cluster). The
 * leader baseline ignores @p opts.
 */
template <typename Fn>
auto
withCluster(sim::Simulator &sim, Engine engine, const ClusterConfig &cfg,
            PersistModel model, const OffloadOptions &opts, Fn &&fn)
{
    switch (engine) {
      case Engine::B: {
        ClusterB cluster(sim, cfg, model, opts);
        return fn(cluster);
      }
      case Engine::O: {
        snic::ClusterO cluster(sim, cfg, model, opts);
        return fn(cluster);
      }
      case Engine::Leader: {
        ClusterLeader cluster(sim, cfg, model);
        return fn(cluster);
      }
    }
    MINOS_PANIC("bad engine ", static_cast<int>(engine));
}

/** A DeathStar function and its load (Fig. 11). */
struct MicroserviceRun
{
    workload::FunctionSpec function;
    MicroserviceConfig load;
};

/** One run, from existing configuration only. opts takes the engine's
 *  own options when the spec is built, so name the engine there. */
struct RunSpec
{
    Engine engine = Engine::O;
    PersistModel model = PersistModel::Synch;
    ClusterConfig cfg{};
    DriverConfig dc{};
    OffloadOptions opts = optionsFor(engine);
    /** Invoke this function instead of running dc's YCSB ops. */
    std::optional<MicroserviceRun> micro{};
};

/** A run's results and what its nodes held afterwards. */
struct RunReport
{
    Engine engine = Engine::O;
    RunResult result;                        ///< YCSB runs
    std::optional<MicroserviceResult> micro; ///< microservice runs
    NodeCounters counters;                   ///< summed over the nodes
    /** MINOS-O: the deepest any node's vFIFO / dFIFO got, and the
     *  obsolete vFIFO entries skipped over all nodes. */
    std::size_t vfifoPeak = 0, dfifoPeak = 0;
    std::uint64_t vfifoSkipped = 0;
    /** Per node, the most keys whose durable state lagged (or led) the
     *  volatile one at once. */
    std::vector<std::size_t> durableLagPeak;

    /** Publish the results under @p prefix: registerRunMetrics, or a
     *  microservice run's "e2e_lat_ns" and "sim.*". */
    void registerResult(obs::MetricsRegistry &reg,
                        const std::string &prefix) const;

    /** Publish what `minos-sim --metrics-out` publishes of a run: the
     *  results under "run.", the counters under "proto.", "snic.*" on
     *  MINOS-O and the largest "nvm.durable_lag_peak". */
    void registerInto(obs::MetricsRegistry &reg) const;
};

/** Run @p spec on a fresh simulator. */
RunReport run(const RunSpec &spec);

} // namespace minos::simproto

#endif // MINOS_SNIC_RUN_HH
