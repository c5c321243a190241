/**
 * @file
 * minos_sim — run one simulated MINOS experiment from the command line.
 *
 * Usage:
 *   minos_sim [--engine=b|o] [--model=synch|strict|renf|event|scope]
 *             [--nodes=N] [--records=N] [--requests=N] [--workers=N]
 *             [--ycsb=A|B|C|F] [--write-frac=F] [--rmw-frac=F]
 *             [--dist=zipfian|uniform] [--persist-ns=N]
 *             [--vfifo=N] [--dfifo=N] [--no-batch] [--no-bcast]
 *             [--scope-size=N] [--seed=N] [--csv [--csv-header]]
 *             [--stats] [--trace-out=FILE.json] [--trace-capacity=N]
 *             [--trace-categories=lock,fifo,...]
 *             [--metrics-out=FILE.json] [--phases]
 *             [--audit] [--audit-fatal] [--help]
 *
 * Prints a human-readable summary, or a CSV row with --csv so sweeps
 * can be scripted (--csv-header adds the header line; alone, it prints
 * only that):
 *
 *   for n in 2 4 6 8 10; do ./minos_sim --nodes=$n --csv; done
 *
 * --ycsb starts from a YCSB core workload's mix; --write-frac and
 * --rmw-frac, when given, override it. Under <Lin, Scope>, each worker
 * closes its scope with a [PERSIST]sc every --scope-size writes.
 * --stats prints the cluster-aggregate protocol counters and, per node,
 * the most keys whose durable state lagged the volatile one at once
 * (the metrics key nvm.durable_lag_peak is the largest of them).
 *
 * --trace-out attaches the flight recorder and writes a Chrome
 * trace-event JSON (load it in Perfetto); --metrics-out writes the
 * run's metrics-registry JSON; --phases prints the per-phase write
 * latency table (see docs/observability.md).
 *
 * --audit attaches the online protocol auditors (obs/audit.hh) and
 * prints a violation report: a summary line on stdout (on stderr under
 * --csv, so that stdout holds only CSV lines) and each violation on
 * stderr; --audit-fatal additionally exits 1 when any invariant is
 * breached, for CI smoke runs. --trace-categories restricts which event
 * categories the ring retains (auditors see the full stream
 * regardless). The ring is kept only for --trace-out, so without it
 * --trace-capacity and --trace-categories are checked but change
 * nothing.
 *
 * An unknown flag or a bad flag value (out of range, malformed, an
 * unknown name, or none where one is needed: `--trace-out=`) exits 2
 * with a message, and so do --csv-header with other flags but not
 * --csv, an output file that cannot be opened for writing (both
 * files are opened before the run), and a <Lin, Scope> run that would
 * open more scopes per node than its scope ids hold (2^26 - 1).
 *
 * A run allows 8 388 607 writes per key (the 24-bit TS_WR version
 * field; a version past that panics) and node ids up to 127.
 */

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/logging.hh"
#include "obs/audit.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"
#include "snic/run.hh"

using namespace minos;
using namespace minos::simproto;

namespace {

/** Upper bound of the count flags (records, requests, ...). */
constexpr std::int64_t maxCount = 100'000'000;

PersistModel
parseModel(const Flags &flags, const std::string &name)
{
    for (PersistModel m : allModels) {
        std::string s(shortModelName(m));
        for (auto &c : s)
            c = static_cast<char>(std::tolower(c));
        if (s == name)
            return m;
    }
    flags.badFlag("unknown --model '" + name +
                  "' (expected synch|strict|renf|event|scope)");
}

const std::vector<std::string> knownFlags = {
    "engine", "model", "nodes", "records", "requests", "workers",
    "write-frac", "rmw-frac", "ycsb", "dist", "persist-ns", "vfifo", "dfifo", "no-batch",
    "no-bcast", "csv", "csv-header", "seed", "scope-size", "stats",
    "trace-out", "trace-capacity", "trace-categories", "metrics-out",
    "phases", "audit", "audit-fatal", "help",
};

/**
 * Open the output file named by --@p flag (none when @p path is empty).
 * Called before the run, so an unwritable path is a bad flag rather than
 * a lost run.
 */
std::ofstream
openOutput(const Flags &flags, const std::string &flag,
           const std::string &path)
{
    std::ofstream out;
    if (path.empty())
        return out;
    out.open(path, std::ios::binary | std::ios::trunc);
    if (!out)
        flags.badFlag("--" + flag + ": cannot open '" + path +
                      "' for writing");
    return out;
}

void
writeOrDie(std::ofstream &out, const std::string &path,
           const std::string &content)
{
    out << content;
    out.flush();
    MINOS_ASSERT(out.good(), "write to ", path, " failed");
}

void
usage(const char *prog)
{
    std::printf(
        "usage: %s [--engine=b|o] [--model=synch|strict|renf|event|"
        "scope]\n"
        "          [--nodes=N] [--records=N] [--requests=N] "
        "[--workers=N]\n"
        "          [--ycsb=A|B|C|F] [--write-frac=F] [--rmw-frac=F]\n"
        "          [--dist=zipfian|uniform] [--persist-ns=N]\n"
        "          [--vfifo=N] [--dfifo=N] [--no-batch] [--no-bcast]\n"
        "          [--scope-size=N] [--seed=N] [--csv "
        "[--csv-header]]\n"
        "          [--stats] [--trace-out=FILE.json] "
        "[--trace-capacity=N]\n"
        "          [--trace-categories=lock,fifo,...]\n"
        "          [--metrics-out=FILE.json] [--phases]\n"
        "          [--audit] [--audit-fatal] [--help]\n"
        "limits: --nodes 2..64; timestamps hold node ids up to %d and "
        "%lld writes\n"
        "        per key in one run (a TS_WR version past that panics)\n"
        "output: under --csv, stdout holds only CSV lines; the --audit "
        "summary\n"
        "        goes to stderr\n",
        prog, static_cast<int>(kv::Timestamp::maxNode),
        static_cast<long long>(kv::Timestamp::maxVersion));
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags(argc, argv);
    if (flags.has("help")) {
        usage(argv[0]);
        return 0;
    }
    auto unknown = flags.unknownFlags(knownFlags);
    if (!unknown.empty()) {
        for (const auto &f : unknown)
            std::fprintf(stderr, "unknown flag --%s\n", f.c_str());
        usage(argv[0]);
        return 2;
    }

    const std::string engine = flags.getString("engine", "o");
    if (engine != "b" && engine != "o")
        flags.badFlag("--engine must be b or o, got '" + engine + "'");
    RunSpec spec{.engine = engine == "o" ? Engine::O : Engine::B,
                 .model = parseModel(flags,
                                     flags.getString("model", "synch"))};
    ClusterConfig &cfg = spec.cfg;
    DriverConfig &dc = spec.dc;
    // The destination bitmaps limit a cluster to 64 nodes.
    cfg.numNodes = static_cast<int>(flags.getInt("nodes", 5, 2, 64));
    cfg.numRecords = static_cast<std::uint64_t>(
        flags.getInt("records", 100'000, 1, maxCount));
    cfg.persistNsPerKb = flags.getInt("persist-ns", 1295, 0, maxCount);
    // 0 = unlimited FIFO.
    cfg.vfifoEntries =
        static_cast<int>(flags.getInt("vfifo", 5, 0, maxCount));
    cfg.dfifoEntries =
        static_cast<int>(flags.getInt("dfifo", 5, 0, maxCount));

    if (flags.getBool("no-batch"))
        spec.opts.batching = false;
    if (flags.getBool("no-bcast"))
        spec.opts.broadcast = false;

    dc.requestsPerNode = static_cast<std::uint64_t>(
        flags.getInt("requests", 2000, 0, maxCount));
    // 0 = one worker per host core.
    dc.workersPerNode =
        static_cast<int>(flags.getInt("workers", 0, 0, 4096));
    dc.scopeSize =
        static_cast<int>(flags.getInt("scope-size", 10, 1, maxCount));
    const std::uint64_t scopes = dc.scopesPerNode(
        dc.workersPerNode > 0 ? dc.workersPerNode : cfg.hostCores);
    if (spec.model == PersistModel::Scope && scopes > ScopeIds::maxPerNode)
        flags.badFlag("--requests over --scope-size opens " +
                      std::to_string(scopes) +
                      " scopes per node; scope ids hold " +
                      std::to_string(ScopeIds::maxPerNode));
    if (flags.has("ycsb")) {
        // Named YCSB core workload (A/B/C/F) overrides the mix flags.
        const std::string preset = flags.getString("ycsb");
        if (preset.size() != 1 ||
            std::string("ABCFabcf").find(preset[0]) == std::string::npos)
            flags.badFlag("--ycsb expects A, B, C or F, got '" + preset +
                          "'");
        dc.ycsb = workload::ycsbPreset(preset[0]);
    }
    dc.ycsb.numRecords = cfg.numRecords;
    dc.ycsb.writeFraction =
        flags.getDouble("write-frac", dc.ycsb.writeFraction, 0, 1);
    dc.ycsb.rmwFraction =
        flags.getDouble("rmw-frac", dc.ycsb.rmwFraction, 0, 1);
    if (dc.ycsb.writeFraction + dc.ycsb.rmwFraction > 1)
        flags.badFlag("--write-frac plus --rmw-frac exceeds 1");
    dc.ycsb.seed = static_cast<std::uint64_t>(flags.getInt(
        "seed", 42, 0, std::numeric_limits<std::int64_t>::max()));
    const std::string dist = flags.getString("dist", "zipfian");
    if (dist == "uniform")
        dc.ycsb.dist = workload::KeyDist::Uniform;
    else if (dist != "zipfian")
        flags.badFlag("--dist must be zipfian or uniform, got '" + dist +
                      "'");

    const std::string trace_out = flags.getNonEmpty("trace-out");
    const std::string metrics_out = flags.getNonEmpty("metrics-out");
    const bool audit_fatal = flags.getBool("audit-fatal");
    const bool want_audit = flags.getBool("audit") || audit_fatal;
    const bool want_phases = flags.getBool("phases") ||
                             !metrics_out.empty() || !trace_out.empty();

    // Only --trace-out reads the ring. Without it the recorder keeps
    // one slot and retains nothing; its sinks (the auditors) still see
    // every record.
    const bool keep_ring = !trace_out.empty();
    const std::int64_t trace_capacity =
        flags.getInt("trace-capacity", 1 << 15, 1, 1 << 26);
    obs::FlightRecorder recorder(
        static_cast<std::size_t>(keep_ring ? trace_capacity : 1));
    auto cats = flags.getStrings("trace-categories");
    if (!cats.empty() || !keep_ring) {
        // Mute everything, then re-enable the requested categories.
        // This only governs ring retention: audit sinks still see the
        // full stream.
        for (int i = 0; i < obs::numCategories; ++i)
            recorder.setEnabled(static_cast<obs::Category>(i), false);
        for (const auto &name : cats) {
            obs::Category c;
            if (!obs::categoryFromName(name, c))
                flags.badFlag("unknown --trace-categories entry '" +
                              name + "'");
            recorder.setEnabled(c, keep_ring);
        }
    }
    obs::WritePhaseStats phase_stats;
    obs::AuditBundle audit;
    if (!trace_out.empty() || want_audit)
        cfg.trace = &recorder;
    if (want_audit)
        cfg.audit = &audit;
    if (want_phases)
        cfg.phases = &phase_stats;

    const bool want_csv = flags.getBool("csv");
    const bool want_csv_header = flags.getBool("csv-header");
    if (want_csv_header && argc != 2 && !want_csv)
        flags.badFlag("--csv-header needs --csv unless it is the only "
                      "flag");
    const bool want_stats = flags.getBool("stats");

    // Last of the flag checks: no file is created for a run that a bad
    // flag refuses.
    if (!trace_out.empty() && trace_out == metrics_out)
        flags.badFlag("--trace-out and --metrics-out name the same file");
    std::ofstream trace_file = openOutput(flags, "trace-out", trace_out);
    std::ofstream metrics_file =
        openOutput(flags, "metrics-out", metrics_out);

    if (want_csv_header) {
        std::printf("engine,model,nodes,records,requests,write_frac,"
                    "dist,write_lat_ns,read_lat_ns,write_p99_ns,"
                    "read_p99_ns,write_tput,read_tput,total_tput,"
                    "obsolete,comm_frac\n");
        if (argc == 2)
            return 0;
    }

    const RunReport report = run(spec);
    const RunResult &res = report.result;

    if (!trace_out.empty())
        writeOrDie(trace_file, trace_out, obs::chromeTraceJson(recorder));
    if (!metrics_out.empty()) {
        obs::MetricsRegistry reg;
        report.registerInto(reg);
        phase_stats.registerInto(reg, "run.");
        if (!trace_out.empty()) {
            reg.counter("trace.recorded", recorder.recorded());
            reg.counter("trace.dropped", recorder.dropped());
        }
        if (want_audit)
            audit.registerInto(reg);
        writeOrDie(metrics_file, metrics_out, reg.json());
    }

    int exit_code = 0;
    if (want_audit) {
        // Under --csv, stdout holds only the header and the row.
        std::fprintf(want_csv ? stderr : stdout,
                     "protocol audit: %llu violations over %llu writes "
                     "(%s)\n",
                     static_cast<unsigned long long>(
                         audit.violationCount()),
                     static_cast<unsigned long long>(audit.opsAudited()),
                     audit.clean() ? "clean" : "VIOLATED");
        if (!audit.clean()) {
            std::fprintf(stderr, "%s", audit.report().c_str());
            if (audit_fatal)
                exit_code = 1;
        }
    }

    if (want_csv) {
        std::printf(
            "%s,%s,%d,%llu,%llu,%.2f,%s,%.0f,%.0f,%ld,%ld,%.0f,%.0f,"
            "%.0f,%llu,%.3f\n",
            engine.c_str(),
            std::string(shortModelName(spec.model)).c_str(), cfg.numNodes,
            static_cast<unsigned long long>(cfg.numRecords),
            static_cast<unsigned long long>(dc.requestsPerNode),
            dc.ycsb.writeFraction, dist.c_str(), res.writeLat.mean(),
            res.readLat.mean(), res.writeLat.p99(), res.readLat.p99(),
            res.writeThroughput(), res.readThroughput(),
            res.totalThroughput(),
            static_cast<unsigned long long>(res.obsoleteWrites),
            res.breakdown.commFraction());
        return exit_code;
    }

    std::printf("MINOS-%s %s  %d nodes, %llu records, %llu req/node, "
                "%.0f%% writes (%s keys)\n",
                engine == "o" ? "O" : "B",
                std::string(modelName(spec.model)).c_str(), cfg.numNodes,
                static_cast<unsigned long long>(cfg.numRecords),
                static_cast<unsigned long long>(dc.requestsPerNode),
                100.0 * dc.ycsb.writeFraction, dist.c_str());
    std::printf("  write latency : mean %8.0f ns   p50 %8ld   p99 "
                "%8ld\n",
                res.writeLat.mean(), res.writeLat.p50(),
                res.writeLat.p99());
    std::printf("  read latency  : mean %8.0f ns   p50 %8ld   p99 "
                "%8ld\n",
                res.readLat.mean(), res.readLat.p50(),
                res.readLat.p99());
    std::printf("  throughput    : %.2f Mops/s (writes %.2f, reads "
                "%.2f)\n",
                res.totalThroughput() / 1e6,
                res.writeThroughput() / 1e6,
                res.readThroughput() / 1e6);
    std::printf("  comm fraction : %.1f%%   obsolete writes: %llu\n",
                100.0 * res.breakdown.commFraction(),
                static_cast<unsigned long long>(res.obsoleteWrites));
    if (flags.getBool("phases") && !phase_stats.empty())
        std::printf("per-phase write latency:\n%s",
                    phase_stats.table().c_str());
    if (want_stats) {
        std::printf("cluster-aggregate protocol counters:\n%s",
                    report.counters.str().c_str());
        std::printf("durable lag peak (keys), per node:");
        for (std::size_t peak : report.durableLagPeak)
            std::printf(" %zu", peak);
        std::printf("\n");
    }
    return exit_code;
}
