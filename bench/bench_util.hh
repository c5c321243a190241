/**
 * @file
 * Shared helpers for the per-figure benchmark harnesses.
 *
 * Each bench binary runs its experiment points once each (the simulator
 * is deterministic, repetition adds nothing) through timePoint, which
 * prints the host time per point, and finally prints the paper-shaped
 * table for the figure it regenerates and its metrics blob.
 *
 * Absolute numbers are not expected to match the paper (the substrate is
 * a calibrated simulator, not the authors' testbed); the *shape* — who
 * wins, by what factor, where crossovers fall — is the reproduction
 * target. See EXPERIMENTS.md.
 */

#ifndef MINOS_BENCH_BENCH_UTIL_HH
#define MINOS_BENCH_BENCH_UTIL_HH

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "simproto/cluster_b.hh"
#include "simproto/driver.hh"
#include "snic/cluster_o.hh"
#include "stats/stats.hh"

namespace minos::bench {

/**
 * Requests per node for workload-driven figures: MINOS_BENCH_REQS when
 * set, else @p dflt. A value that is not a positive decimal integer is a
 * fatal user error rather than a run of nothing.
 */
inline std::uint64_t
benchRequestsPerNode(std::uint64_t dflt = 1000)
{
    const char *env = std::getenv("MINOS_BENCH_REQS");
    if (!env)
        return dflt;
    char *end = nullptr;
    errno = 0;
    std::uint64_t n = std::strtoull(env, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(env[0])) || *end != '\0' ||
        errno == ERANGE || n == 0)
        MINOS_FATAL("MINOS_BENCH_REQS expects a positive integer, got '",
                    env, "'");
    return n;
}

/** Paper-default cluster configuration (Tables II/III). */
inline simproto::ClusterConfig
paperConfig(int nodes = 5)
{
    simproto::ClusterConfig cfg;
    cfg.numNodes = nodes;
    cfg.numRecords = 100'000;
    return cfg;
}

/** Paper-default YCSB driver configuration (§VII). */
inline simproto::DriverConfig
paperDriver(const simproto::ClusterConfig &cfg,
            double write_fraction = 0.5)
{
    simproto::DriverConfig dc;
    dc.requestsPerNode = benchRequestsPerNode();
    dc.workersPerNode = cfg.hostCores;
    dc.ycsb.numRecords = cfg.numRecords;
    dc.ycsb.writeFraction = write_fraction;
    return dc;
}

/** Run one MINOS-B experiment point. */
inline simproto::RunResult
runB(const simproto::ClusterConfig &cfg, simproto::PersistModel model,
     const simproto::DriverConfig &dc,
     simproto::OffloadOptions opts = simproto::OffloadOptions::minosB())
{
    sim::Simulator sim;
    simproto::ClusterB cluster(sim, cfg, model, opts);
    return simproto::runWorkload(sim, cluster, dc);
}

/** Run one MINOS-O experiment point. */
inline simproto::RunResult
runO(const simproto::ClusterConfig &cfg, simproto::PersistModel model,
     const simproto::DriverConfig &dc,
     simproto::OffloadOptions opts = simproto::OffloadOptions::minosO())
{
    sim::Simulator sim;
    snic::ClusterO cluster(sim, cfg, model, opts);
    return simproto::runWorkload(sim, cluster, dc);
}

/**
 * The figure benches take no arguments (MINOS_BENCH_REQS is their one
 * knob): any argument prints a usage line and exits 2.
 */
inline void
rejectArgs(int argc, char **argv)
{
    if (argc <= 1)
        return;
    std::fprintf(stderr,
                 "usage: %s (takes no arguments; MINOS_BENCH_REQS=N "
                 "sets the requests per node)\n",
                 argv[0]);
    std::exit(2);
}

/**
 * Run one experiment point and print "<name>  <wall> ms", the host time
 * it took. Its simulated results go to the bench's table and metrics.
 */
template <typename Fn>
inline void
timePoint(const std::string &name, Fn &&fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - start;
    std::printf("%-32s %10.1f ms\n", name.c_str(), wall.count());
    std::fflush(stdout);
}

/** Print the figure banner before the table. */
inline void
printBanner(const char *figure, const char *what)
{
    std::printf("\n=== %s: %s ===\n", figure, what);
    std::printf("(simulated machine, Tables II/III parameters; "
                "shape-level reproduction)\n\n");
}

/**
 * The bench process's metrics registry: every experiment point records
 * its results here (recordRunMetrics), and the bench prints the whole
 * blob once at exit (printMetricsBlob) so trajectory tooling gets one
 * uniform machine-readable line per bench.
 */
inline obs::MetricsRegistry &
metricsRegistry()
{
    static obs::MetricsRegistry reg;
    return reg;
}

/** Record one workload run's metrics under "<point>." . */
inline void
recordRunMetrics(const std::string &point,
                 const simproto::RunResult &res)
{
    simproto::registerRunMetrics(metricsRegistry(), point + ".", res);
}

/** Record one microservice run's metrics under "<point>." . */
inline void
recordMicroMetrics(const std::string &point,
                   const simproto::MicroserviceResult &res)
{
    auto &reg = metricsRegistry();
    if (!res.e2eLat.empty())
        reg.histogram(point + ".e2e_lat_ns", res.e2eLat);
    obs::registerEventCore(reg, point + ".sim.", res.eventCore);
}

/** Print the accumulated metrics blob (one line, grep-able). */
inline void
printMetricsBlob(const char *bench)
{
    std::printf("\nMINOS_METRICS %s %s\n", bench,
                metricsRegistry().json().c_str());
}

} // namespace minos::bench

#endif // MINOS_BENCH_BENCH_UTIL_HH
