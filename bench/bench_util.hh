/**
 * @file
 * The simulated paper figures (Figs. 4 and 9-14, and two extensions) as
 * lists of named experiment points, and the driver that runs them;
 * bench/figures.cc is its command line.
 *
 * A point is one seeded simulation: its metrics prefix, an engine, a
 * model and an edit to the paper-default configuration. `figures
 * <name>...` runs each named figure's points once each (the simulator is
 * deterministic, repetition adds nothing), printing the host time of
 * each, then the figure's MINOS_METRICS blob. tools/experiments.py
 * renders the paper-shaped tables from those blobs.
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
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "snic/run.hh"

namespace minos::bench {

using simproto::allModels;
using simproto::PersistModel;

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

using simproto::Engine;

/**
 * One experiment point: a metrics key and the run it names. Its
 * configuration starts at the paper defaults (Tables II/III: 5 nodes,
 * 100 K records; §VII: a 50/50 zipfian YCSB mix with one worker per host
 * core) and the engine's own message options; each figure edits what it
 * sweeps.
 */
struct Point : simproto::RunSpec
{
    Point(std::string key_, Engine engine,
          PersistModel model = PersistModel::Synch)
        : RunSpec{.engine = engine, .model = model}, key(std::move(key_))
    {
        dc = {.requestsPerNode = benchRequestsPerNode(),
              .workersPerNode = cfg.hostCores,
              .ycsb = {.numRecords = cfg.numRecords}};
    }

    /** Metrics prefix, e.g. "fig09.Strict.o.w20"; names the timing line. */
    std::string key;
};

/** A B or O point key's engine part. */
inline const char *
engineTag(Engine e)
{
    return e == Engine::O ? ".o" : ".b";
}

/** "<fig>.<Model>.<b|o>", the prefix of a per-model, per-engine point. */
inline std::string
modelKey(std::string_view fig, PersistModel m, Engine e)
{
    return std::string(fig) + "." + std::string(shortModelName(m)) +
           engineTag(e);
}

/** Fig. 4: MINOS-B write latency split per model. */
inline std::vector<Point>
fig04Points()
{
    std::vector<Point> pts;
    for (PersistModel m : allModels)
        pts.push_back({"fig04." + std::string(shortModelName(m)),
                       Engine::B, m});
    return pts;
}

/** Fig. 9: B vs O per model at each write mix (0% writes = 100% reads). */
inline std::vector<Point>
fig09Points()
{
    std::vector<Point> pts;
    for (PersistModel m : allModels)
        for (Engine e : {Engine::B, Engine::O})
            for (int pct : {0, 20, 50, 80, 100}) {
                pts.push_back({modelKey("fig09", m, e) + ".w" +
                                   std::to_string(pct),
                               e, m});
                pts.back().dc.ycsb.writeFraction = pct / 100.0;
            }
    return pts;
}

/** Fig. 10: B vs O per model at each node count. */
inline std::vector<Point>
fig10Points()
{
    std::vector<Point> pts;
    for (PersistModel m : allModels)
        for (Engine e : {Engine::B, Engine::O})
            for (int nodes : {2, 4, 6, 8, 10}) {
                pts.push_back({modelKey("fig10", m, e) + ".n" +
                                   std::to_string(nodes),
                               e, m});
                pts.back().cfg.numNodes = nodes;
                pts.back().dc.requestsPerNode = benchRequestsPerNode(600);
            }
    return pts;
}

/** Fig. 11: DeathStar Login per model and engine, 16 nodes. */
inline std::vector<Point>
fig11Points()
{
    std::vector<Point> pts;
    for (PersistModel m : allModels)
        for (Engine e : {Engine::B, Engine::O})
            for (const auto &spec : {workload::socialNetworkLogin(),
                                     workload::mediaMicroservicesLogin()}) {
                pts.push_back({modelKey("fig11", m, e) + "." + spec.app, e,
                               m});
                pts.back().cfg.numNodes = 16;
                // 15 Login invocations by each of 2 workers a node.
                pts.back().micro = {spec,
                                    {.invocationsPerNode = 15,
                                     .workersPerNode = 2,
                                     .numRecords = pts.back().cfg.numRecords}};
            }
    return pts;
}

/** Fig. 12: the MINOS-O optimizations one by one, 100% writes. */
inline std::vector<Point>
fig12Points()
{
    struct Toggles
    {
        Engine engine;
        bool batching, broadcast;
    };
    const Toggles configs[] = {
        {Engine::B, false, false}, // MINOS-B
        {Engine::B, false, true},  // B+bcast
        {Engine::B, true, false},  // B+batch
        {Engine::O, false, false}, // Combined: offload+coherence+WRLock
        {Engine::O, false, true},  // Combined+bcast
        {Engine::O, true, false},  // Combined+batch
        {Engine::O, true, true},   // MINOS-O (all)
    };
    std::vector<Point> pts;
    for (const Toggles &c : configs) {
        pts.push_back({"fig12.cfg" + std::to_string(pts.size()), c.engine});
        pts.back().dc.ycsb.writeFraction = 1.0;
        pts.back().opts = {.batching = c.batching, .broadcast = c.broadcast};
    }
    return pts;
}

/** Fig. 13: MINOS-O at each vFIFO/dFIFO size (0 = unlimited). */
inline std::vector<Point>
fig13Points()
{
    std::vector<Point> pts;
    for (int size : {1, 2, 3, 4, 5, 100, 0}) {
        pts.push_back({"fig13.entries" + (size == 0
                                              ? std::string("_unlimited")
                                              : std::to_string(size)),
                       Engine::O});
        pts.back().cfg.vfifoEntries = size;
        pts.back().cfg.dfifoEntries = size;
    }
    return pts;
}

/**
 * Fig. 14: B and O (timed apart) at each host persist latency, key
 * distribution and database size. Only the host NVM is swept: Table III
 * fixes the SmartNIC dFIFO at its own 1295 ns/KB write latency, which is
 * exactly why the offload benefit grows with slower host durable media.
 */
inline std::vector<Point>
fig14Points()
{
    std::vector<Point> pts;
    auto both = [&pts](const std::string &setting, auto edit) {
        for (Engine e : {Engine::B, Engine::O}) {
            pts.push_back({"fig14." + setting + engineTag(e), e});
            edit(pts.back());
        }
    };
    for (Tick ns : {100, 1295, 10000, 100000})
        both("persist" + std::to_string(ns),
             [ns](Point &p) { p.cfg.persistNsPerKb = ns; });
    both("zipfian", [](Point &) {});
    both("uniform",
         [](Point &p) { p.dc.ycsb.dist = workload::KeyDist::Uniform; });
    for (std::uint64_t records : {10, 1000, 100000})
        both("db" + std::to_string(records), [records](Point &p) {
            p.cfg.numRecords = records;
            p.dc.ycsb.numRecords = records;
        });
    return pts;
}

/** Leader-based vs leaderless (MINOS-B) at each node count, Synch. */
inline std::vector<Point>
leaderPoints()
{
    std::vector<Point> pts;
    for (Engine e : {Engine::Leader, Engine::B})
        for (int nodes : {2, 4, 6, 8}) {
            pts.push_back({std::string("leader.") +
                               (e == Engine::B ? "leaderless" : "leader") +
                               ".n" + std::to_string(nodes),
                           e});
            pts.back().cfg.numNodes = nodes;
            pts.back().dc.requestsPerNode = benchRequestsPerNode(600);
        }
    return pts;
}

/** YCSB core workloads A/B/C/F on B vs O, Synch. */
inline std::vector<Point>
ycsbPoints()
{
    std::vector<Point> pts;
    for (char wl : {'A', 'B', 'C', 'F'})
        for (Engine e : {Engine::B, Engine::O}) {
            pts.push_back({std::string("ycsb.") + wl + engineTag(e), e});
            pts.back().dc.ycsb = workload::ycsbPreset(wl);
            pts.back().dc.ycsb.numRecords = pts.back().cfg.numRecords;
        }
    return pts;
}

/** A figure: the name of its MINOS_METRICS blob and its points. */
struct Figure
{
    const char *name;
    std::vector<Point> (*points)();
};

inline constexpr Figure figures[] = {
    {"fig04", fig04Points}, {"fig09", fig09Points},
    {"fig10", fig10Points}, {"fig11", fig11Points},
    {"fig12", fig12Points}, {"fig13", fig13Points},
    {"fig14", fig14Points}, {"leader", leaderPoints},
    {"ycsb", ycsbPoints},
};

/**
 * The figures named by argv[1..]. No name, or one not in `figures`,
 * prints a usage line listing the names and exits 2.
 */
inline std::vector<const Figure *>
parseFigures(int argc, char **argv)
{
    std::vector<const Figure *> picked;
    for (int i = 1; i < argc; ++i) {
        const Figure *found = nullptr;
        for (const Figure &f : figures)
            if (argv[i] == std::string_view(f.name))
                found = &f;
        if (!found) {
            picked.clear();
            break;
        }
        picked.push_back(found);
    }
    if (picked.empty()) {
        std::string names;
        for (const Figure &f : figures)
            names += std::string(" ") + f.name;
        std::fprintf(stderr,
                     "usage: %s <name>... (names:%s; MINOS_BENCH_REQS=N "
                     "sets the requests per node)\n",
                     argv[0], names.c_str());
        std::exit(2);
    }
    return picked;
}

/** Run one point and record its metrics in @p reg under "<key>.". */
inline void
runPoint(const Point &p, obs::MetricsRegistry &reg)
{
    simproto::run(p).registerResult(reg, p.key + ".");
}

/**
 * Run a figure's points, printing "<key>  <wall> ms" (the host time)
 * after each, then its blob. Each figure gets a fresh registry, so a
 * blob does not depend on which figures ran before it.
 */
inline void
runFigure(const Figure &fig)
{
    obs::MetricsRegistry reg;
    for (const Point &p : fig.points()) {
        auto start = std::chrono::steady_clock::now();
        runPoint(p, reg);
        std::chrono::duration<double, std::milli> wall =
            std::chrono::steady_clock::now() - start;
        std::printf("%-32s %10.1f ms\n", p.key.c_str(), wall.count());
        std::fflush(stdout);
    }
    std::printf("\nMINOS_METRICS %s %s\n", fig.name, reg.json().c_str());
    std::fflush(stdout);
}

} // namespace minos::bench

#endif // MINOS_BENCH_BENCH_UTIL_HH
