/**
 * @file
 * Closed-loop workload driver for the simulated clusters.
 *
 * Mirrors the paper's setup (§VII): every node runs `workersPerNode`
 * client workers (one per busy core) that issue its YCSB request stream
 * back-to-back; reads are local, writes replicate to all other nodes.
 * For <Lin, Scope>, each worker closes its scope with a [PERSIST]sc
 * every `scopeSize` writes.
 */

#ifndef MINOS_SIMPROTO_DRIVER_HH
#define MINOS_SIMPROTO_DRIVER_HH

#include <cstdint>

#include "obs/metrics.hh"
#include "sim/simulator.hh"
#include "simproto/cluster.hh"
#include "stats/stats.hh"
#include "workload/deathstar.hh"
#include "workload/ycsb.hh"

namespace minos::simproto {

/**
 * The scope ids one node hands its workers under <Lin, Scope>: a 6-bit
 * node over a 26-bit sequence from 1 that the node's workers share, so
 * no two scopes of a run share an id, whatever the worker count.
 */
class ScopeIds
{
  public:
    static constexpr int seqBits = 26;
    /** The most scopes one node can open. */
    static constexpr std::uint64_t maxPerNode =
        (std::uint64_t{1} << seqBits) - 1;

    explicit ScopeIds(kv::NodeId node);

    /** The node's next scope id; panics past maxPerNode. */
    net::ScopeId next();

  private:
    kv::NodeId node_;
    std::uint64_t seq_ = 0;
};

/** Driver parameters. */
struct DriverConfig
{
    /** Total requests issued by each node (paper default 100,000). */
    std::uint64_t requestsPerNode = 2000;
    /** Concurrent client workers per node (0 = one per host core). */
    int workersPerNode = 0;
    /** Writes per scope before [PERSIST]sc (<Lin, Scope> only). */
    int scopeSize = 10;
    /** Workload shape. */
    workload::YcsbConfig ycsb;
    /** Keep RunResult's latency samples in arrival order as well
     *  (LatencySeries::keepOrder), for tests that compare two runs
     *  sample by sample. */
    bool keepSampleOrder = false;

    /** The most scopes one node opens in a <Lin, Scope> run with
     *  @p workers per node: one per worker, plus one per scopeSize
     *  writes. */
    std::uint64_t
    scopesPerNode(int workers) const
    {
        return static_cast<std::uint64_t>(workers) +
               requestsPerNode / static_cast<std::uint64_t>(scopeSize);
    }
};

/** Aggregated measurement of one run. */
struct RunResult
{
    stats::LatencySeries writeLat;
    stats::LatencySeries readLat;
    stats::LatencySeries persistLat; ///< [PERSIST]sc transactions
    stats::Breakdown breakdown;      ///< write comm/comp split (Fig. 4)
    stats::EventCoreCounters eventCore; ///< simulator event-core stats
    Tick duration = 0;               ///< makespan of the run
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t obsoleteWrites = 0;

    double
    writeThroughput() const
    {
        return stats::opsPerSec(writes, duration);
    }

    double
    readThroughput() const
    {
        return stats::opsPerSec(reads, duration);
    }

    double
    totalThroughput() const
    {
        return stats::opsPerSec(writes + reads, duration);
    }
};

/**
 * Run @p driver_cfg's workload to completion on @p cluster and return the
 * measurements. Calls sim.run(); the simulator must be otherwise idle.
 */
RunResult runWorkload(sim::Simulator &sim, DdpCluster &cluster,
                      const DriverConfig &driver_cfg);

/**
 * Publish one run's results under @p prefix: throughput and duration
 * gauges, op counters, write/read/persist latency histograms, the
 * Fig. 4 comm/comp split, and the event-core counters.
 */
void registerRunMetrics(obs::MetricsRegistry &reg,
                        const std::string &prefix,
                        const RunResult &res);

/** Parameters of a microservice end-to-end latency run (Fig. 11). */
struct MicroserviceConfig
{
    int invocationsPerNode = 20;
    int workersPerNode = 2;
    std::uint64_t numRecords = 100'000;
    std::uint64_t seed = 7;
};

/** Result: end-to-end latency of each function invocation. */
struct MicroserviceResult
{
    stats::LatencySeries e2eLat;
    stats::EventCoreCounters eventCore; ///< simulator event-core stats
};

/**
 * Run the DeathStar-style function @p spec on every node of @p cluster:
 * each invocation pays the client<->service round trips plus its GET/SET
 * sequence through the DDP protocols (paper §VIII-C). For <Lin, Scope>,
 * each invocation forms one scope closed by [PERSIST]sc.
 */
MicroserviceResult runMicroservice(sim::Simulator &sim,
                                   DdpCluster &cluster,
                                   const workload::FunctionSpec &spec,
                                   const MicroserviceConfig &mcfg);

} // namespace minos::simproto

#endif // MINOS_SIMPROTO_DRIVER_HH
