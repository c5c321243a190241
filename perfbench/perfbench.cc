/**
 * @file
 * minos_perfbench — the measuring program behind perfbench/run.py.
 *
 * Runs one benchmark workload in this process, single-threaded, through
 * the public API only, and prints one JSON object on stdout:
 *
 *   minos_perfbench --workload=NAME --seed=N --seconds=S
 *                   --mode=measure|trace [--out-dir=DIR]
 *
 *  - measure: repeats the workload until S seconds have passed and
 *    reports the medians of the end-to-end host metrics, with no
 *    observer attached beyond what the workload itself defines;
 *  - trace:   alternates untraced and traced repeats (record-counting
 *    sink, WritePhaseStats, AuditBundle, live-byte tracking), then
 *    times the per-layer microbenchmarks at the sizes the workload hit,
 *    and reports the per-layer metrics; spans go to DIR.
 *
 * Simulated results are hashed (every latency sample, op counts and
 * NodeCounters); every repeat, traced or not, must give the same hash.
 * See perfbench/README.md for the workloads and metric definitions.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "check/checker.hh"
#include "common/flags.hh"
#include "micro.hh"
#include "obs/audit.hh"
#include "obs/chrome_trace.hh"
#include "obs/phase.hh"
#include "simproto/cluster_b.hh"
#include "simproto/driver.hh"
#include "snic/cluster_o.hh"

// ---------------------------------------------------------------------
// Allocation hook: counts every operator new; in traced phases it also
// tracks live and peak bytes (for the checker's bytes per state).
// ---------------------------------------------------------------------

namespace {

std::uint64_t g_allocs = 0;
bool g_trackLive = false;
std::int64_t g_liveBytes = 0;
std::int64_t g_peakLiveBytes = 0;

} // namespace

void *
operator new(std::size_t n)
{
    ++g_allocs;
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    if (g_trackLive) {
        g_liveBytes += static_cast<std::int64_t>(malloc_usable_size(p));
        g_peakLiveBytes = std::max(g_peakLiveBytes, g_liveBytes);
    }
    return p;
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    if (!p)
        return;
    if (g_trackLive)
        g_liveBytes -= static_cast<std::int64_t>(malloc_usable_size(p));
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

namespace {

using namespace minos;
using simproto::PersistModel;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Workloads (paper §VII setup: 5 nodes, 100 K 1 KB records, 5 closed-loop
// workers per node). Why each exists: perfbench/README.md.
// ---------------------------------------------------------------------

constexpr int kNodes = 5;
constexpr std::uint64_t kRecords = 100'000;
constexpr int kWorkers = 5;
constexpr std::uint64_t kRequestsPerNode = 4000;

/** check_synch_3w's state count; every run must reproduce it. */
constexpr std::size_t kCheckStates = 1'276'098;

/** Timed calls of the smallest model per CPU, for check_synch_3w's setup_s. */
constexpr int kCheckSetupCallsPerCpu = 25;

struct Workload
{
    const char *name;
    bool check;   ///< model-checker workload (no simulation)
    bool offload; ///< MINOS-O (else MINOS-B)
    PersistModel model;
    char ycsb;  ///< YCSB core-workload preset
    bool audit; ///< recorder + AuditBundle attached in measured runs
};

const Workload kWorkloads[] = {
    {"o_strict_write", false, true, PersistModel::Strict, 'A', false},
    {"b_synch_read", false, false, PersistModel::Synch, 'B', false},
    {"o_scope_audit", false, true, PersistModel::Scope, 'A', true},
    {"check_synch_3w", true, false, PersistModel::Synch, 0, false},
};

const Workload *
findWorkload(const std::string &name)
{
    for (const auto &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

simproto::ClusterConfig
clusterConfig()
{
    simproto::ClusterConfig cfg;
    cfg.numNodes = kNodes;
    cfg.numRecords = kRecords;
    return cfg;
}

simproto::DriverConfig
driverConfig(const Workload &w, std::uint64_t seed)
{
    simproto::DriverConfig dc;
    dc.requestsPerNode = kRequestsPerNode;
    dc.workersPerNode = kWorkers;
    dc.ycsb = workload::ycsbPreset(w.ycsb);
    dc.ycsb.numRecords = kRecords;
    dc.ycsb.requestsPerNode = kRequestsPerNode;
    dc.ycsb.seed = seed;
    return dc;
}

check::CheckConfig
checkConfig()
{
    check::CheckConfig cc;
    cc.numNodes = 3;
    cc.model = PersistModel::Synch;
    cc.writers = {0, 1, 2};
    return cc;
}

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

double
secondsSince(Clock::time_point t0)
{
    return seconds(t0, Clock::now());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * The fast tail (10th percentile, linear interpolation) of host times
 * taken over repeats. On a shared host, contention from other tenants
 * only ever slows a repeat down and comes and goes over seconds, so the
 * median of one run follows the neighbours' load (run-to-run spread of
 * 15-30 % on 4 shared vCPUs) while the fast tail follows the code
 * (2-10 %).
 */
double
fastTail(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = 0.1 * static_cast<double>(v.size() - 1);
    const auto i = static_cast<std::size_t>(pos);
    if (i + 1 >= v.size())
        return v[i];
    return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

/**
 * Moves the measuring thread round-robin over the CPUs it may run on,
 * one repeat per CPU. On a shared host each vCPU sits on a physical
 * core with its own neighbours' load, and a process otherwise stays on
 * the vCPU it started on: single runs came out 35 % apart depending on
 * that placement. Visiting every CPU puts the least loaded one in each
 * run's fast tail.
 */
class CpuRotation
{
  public:
    void
    next()
    {
        const auto &cpus = allowed();
        if (cpus.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[next_++ % cpus.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

    std::size_t size() const { return allowed().size(); }

  private:
    /**
     * The CPUs the process was started with, read before the first
     * next() narrows the affinity mask to one CPU.
     */
    static const std::vector<int> &
    allowed()
    {
        static const std::vector<int> cpus = [] {
            std::vector<int> v;
            cpu_set_t mask;
            CPU_ZERO(&mask);
            if (sched_getaffinity(0, sizeof mask, &mask) == 0)
                for (int c = 0; c < CPU_SETSIZE; ++c)
                    if (CPU_ISSET(c, &mask))
                        v.push_back(c);
            return v;
        }();
        return cpus;
    }

    std::size_t next_ = 0;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
};

/** Spans the benchmark records around its own calls into each layer. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    int
    begin(const char *name, int parent)
    {
        spans_.push_back({name, parent, Clock::now(), {}});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    end(int id)
    {
        spans_[static_cast<std::size_t>(id)].end = Clock::now();
    }

    /** A span whose bounds were taken elsewhere. */
    void
    add(const char *name, int parent, Clock::time_point start,
        Clock::time_point end)
    {
        spans_.push_back({name, parent, start, end});
    }

    /** Median duration, in seconds, of every span called @p name. */
    double
    medianSeconds(const std::string &name) const
    {
        std::vector<double> v;
        for (const auto &s : spans_)
            if (name == s.name)
                v.push_back(seconds(s.start, s.end));
        return median(v);
    }

    /** Chrome trace-event JSON ("X" events, parent in args). */
    std::string
    json() const
    {
        std::string out = "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto &s = spans_[i];
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%zu,\"parent\":%d}}",
                          i ? "," : "", s.name,
                          seconds(origin_, s.start) * 1e6,
                          seconds(s.start, s.end) * 1e6, i, s.parent);
            out += buf;
        }
        return out + "]}\n";
    }

  private:
    struct Span
    {
        const char *name;
        int parent;
        Clock::time_point start;
        Clock::time_point end;
    };

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Scoped span; a null log records nothing. */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const char *name, int parent = -1)
        : log_(log), id_(log ? log->begin(name, parent) : -1)
    {
    }
    ~SpanScope()
    {
        if (log_)
            log_->end(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    SpanLog *log_;
    int id_;
};

/** Benchmark-owned sink: counts records by kind and keeps the stream. */
class StreamCapture : public obs::RecordSink
{
  public:
    void
    onRecord(const obs::Record &rec) override
    {
        ++byKind_[static_cast<std::size_t>(rec.kind)];
        stream_.push_back(rec);
    }

    std::uint64_t
    count(obs::EventKind k) const
    {
        return byKind_[static_cast<std::size_t>(k)];
    }

    const std::vector<obs::Record> &stream() const { return stream_; }

  private:
    std::array<std::uint64_t, 32> byKind_{};
    std::vector<obs::Record> stream_;
};

/** Everything a traced repeat attaches. */
struct Observers
{
    obs::FlightRecorder recorder;
    obs::WritePhaseStats phases;
    obs::AuditBundle audit;
    StreamCapture capture;
};

// ---------------------------------------------------------------------
// One simulation repeat
// ---------------------------------------------------------------------

struct SimOutcome
{
    simproto::RunResult res;
    simproto::NodeCounters agg;
    std::size_t vfifoPeak = 0;
    std::size_t dfifoPeak = 0;
    std::uint64_t vfifoSkipped = 0;
    std::uint64_t logEntries = 0;
    double constructS = 0; ///< simulator + cluster construction
    double runS = 0;       ///< sim.run: first event until runWorkload returns
    double wallS = 0;      ///< construction until results collected
    std::uint64_t allocs = 0; ///< operator new calls during sim.run
    std::uint64_t violations = 0;
    std::string auditReport; ///< first violations, when there are any
    std::uint64_t hash = 0;

    std::uint64_t
    clientOps() const
    {
        return res.reads + res.writes + res.persistLat.count();
    }

    std::uint64_t
    unfinished() const
    {
        const std::uint64_t expected = kNodes * kRequestsPerNode;
        const std::uint64_t done = res.reads + res.writes;
        return done < expected ? expected - done : 0;
    }
};

/**
 * One repeat of a simulation workload. With @p timed, a marker event
 * queued ahead of the workers stamps the host time at which sim.run()
 * starts dispatching, so runS covers the simulator alone and not
 * runWorkload's stream generation and dealing. The marker is the only
 * extra event; the untimed reference repeat shows it changes no result.
 */
template <typename ClusterT>
void
drive(const Workload &w, std::uint64_t seed, bool timed, Observers *obsv,
      SpanLog *spans, SimOutcome &out)
{
    const auto t0 = Clock::now();
    const SpanScope root(spans, "repeat");
    auto cfg = clusterConfig();
    const auto dc = driverConfig(w, seed);

    // Auditors are attached by hand rather than through cfg.audit, which
    // is equivalent at construction but makes runWorkload call finish()
    // itself; here the end-of-run pass stays outside the sim.run time.
    std::optional<obs::FlightRecorder> ownRecorder;
    std::optional<obs::AuditBundle> ownAudit;
    obs::FlightRecorder *recorder = nullptr;
    obs::AuditBundle *audit = nullptr;
    std::optional<SpanScope> construct(std::in_place, spans, "construct",
                                       root.id());
    if (obsv) {
        recorder = &obsv->recorder;
        audit = &obsv->audit;
        cfg.phases = &obsv->phases;
        recorder->addSink(&obsv->capture);
    } else if (w.audit) {
        recorder = &ownRecorder.emplace();
        audit = &ownAudit.emplace();
    }
    if (recorder) {
        cfg.trace = recorder;
        audit->configure({kNodes, w.model, w.offload ? cfg.vfifoEntries : 0,
                          w.offload ? cfg.dfifoEntries : 0});
        audit->attach(*recorder);
    }
    sim::Simulator sim;
    ClusterT cluster(sim, cfg, w.model,
                     w.offload ? simproto::OffloadOptions::minosO()
                               : simproto::OffloadOptions::minosB());
    construct.reset();
    out.constructS = secondsSince(t0);

    Clock::time_point runStart{};
    std::uint64_t allocsAtStart = 0;
    if (timed) {
        sim.after(0, [&runStart, &allocsAtStart] {
            allocsAtStart = g_allocs;
            runStart = Clock::now();
        });
    }
    const auto tCall = Clock::now();
    out.res = simproto::runWorkload(sim, cluster, dc);
    const auto tReturn = Clock::now();
    if (timed) {
        out.allocs = g_allocs - allocsAtStart;
        out.runS = seconds(runStart, tReturn);
        if (spans) {
            spans->add("workload.deal", root.id(), tCall, runStart);
            spans->add("sim.run", root.id(), runStart, tReturn);
        }
    }
    if (audit) {
        const SpanScope fin(spans, "audit.finish", root.id());
        audit->finish();
        out.violations = audit->violationCount();
        if (out.violations)
            out.auditReport = audit->report(4);
    }

    Fnv h;
    h.add(out.res.writeLat.digest());
    h.add(out.res.readLat.digest());
    h.add(out.res.persistLat.digest());
    h.add(out.res.writes);
    h.add(out.res.reads);
    h.add(out.res.obsoleteWrites);
    h.add(static_cast<std::uint64_t>(out.res.duration));
    for (int n = 0; n < kNodes; ++n) {
        auto &node = cluster.node(n);
        const auto &c = node.counters();
        out.agg += c;
        for (std::uint64_t v :
             {c.invsSent, c.valsSent, c.acksSent, c.invsReceived,
              c.acksReceived, c.valsReceived, c.writesCoordinated,
              c.writesObsoleteCut, c.invsObsolete, c.rdLockSnatches,
              c.persists})
            h.add(v);
        out.logEntries += node.log().size();
        if constexpr (std::is_same_v<ClusterT, snic::ClusterO>) {
            out.vfifoPeak =
                std::max(out.vfifoPeak, node.vfifo().peakOccupancy());
            out.dfifoPeak =
                std::max(out.dfifoPeak, node.dfifo().peakOccupancy());
            out.vfifoSkipped += node.vfifo().skippedObsolete();
        }
    }
    out.hash = h.h;
    out.wallS = secondsSince(t0);
    if (audit)
        audit->detach();
}

SimOutcome
runSim(const Workload &w, std::uint64_t seed, bool timed,
       Observers *obsv = nullptr, SpanLog *spans = nullptr)
{
    SimOutcome out;
    if (w.offload)
        drive<snic::ClusterO>(w, seed, timed, obsv, spans, out);
    else
        drive<simproto::ClusterB>(w, seed, timed, obsv, spans, out);
    return out;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Output
{
    std::vector<std::pair<std::string, std::pair<double, const char *>>>
        metrics;
    std::vector<std::pair<std::string, std::string>> report;
    /** Per-layer metrics this workload does not exercise, with why. */
    std::vector<std::pair<std::string, std::string>> notMeasured;
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    metric(const std::string &name, double value, const char *unit)
    {
        metrics.push_back({name, {value, unit}});
    }

    void
    fact(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        report.push_back({key, buf});
    }

    void
    fail(const std::string &why)
    {
        correct = false;
        errors.push_back(why);
    }

    void
    print() const
    {
        std::string s = "{\"correct\":";
        s += correct ? "true" : "false";
        s += ",\"attempted\":" + std::to_string(attempted);
        s += ",\"failed\":" + std::to_string(failed);
        s += ",\"metrics\":{";
        char buf[256];
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            std::snprintf(buf, sizeof buf,
                          "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                          i ? "," : "", metrics[i].first.c_str(),
                          metrics[i].second.first,
                          metrics[i].second.second);
            s += buf;
        }
        s += "},\"report\":{";
        for (std::size_t i = 0; i < report.size(); ++i)
            s += (i ? ",\"" : "\"") + report[i].first +
                 "\":" + report[i].second;
        s += "},\"not_measured\":{";
        for (std::size_t i = 0; i < notMeasured.size(); ++i)
            s += (i ? ",\"" : "\"") + notMeasured[i].first + "\":\"" +
                 notMeasured[i].second + "\"";
        s += "},\"errors\":[";
        for (std::size_t i = 0; i < errors.size(); ++i)
            s += (i ? ",\"" : "\"") + errors[i] + "\"";
        s += "]}";
        std::printf("%s\n", s.c_str());
    }
};

/** Simulated results (guards: a host-only change leaves them exact). */
void
reportSimulated(Output &out, const SimOutcome &o)
{
    out.fact("sim_write_p50_us", o.res.writeLat.p50() / 1e3);
    out.fact("sim_write_p99_us", o.res.writeLat.p99() / 1e3);
    out.fact("sim_read_p99_us", o.res.readLat.p99() / 1e3);
    out.fact("sim_mops", o.res.totalThroughput() / 1e6);
    char buf[32];
    std::snprintf(buf, sizeof buf, "\"%016llx\"",
                  static_cast<unsigned long long>(o.hash));
    out.report.push_back({"sim_result_hash", buf});
    out.fact("client_ops", static_cast<double>(o.clientOps()));
    out.fact("events_executed",
             static_cast<double>(o.res.eventCore.eventsExecuted));
}

/**
 * Auditor findings fail the run on the workload that runs the auditors
 * as part of its configuration (o_scope_audit). The other workloads
 * attach them only in traced repeats, to time and count them; there a
 * finding is reported (audit_findings, report on stderr) but is not an
 * output of the measured workload. MINOS-B reads currently trip C4/P3:
 * see perfbench/README.md.
 */
void
reportViolations(const Workload &w, const SimOutcome &o, Output &out)
{
    if (!o.violations)
        return;
    std::fprintf(stderr, "%s\n", o.auditReport.c_str());
    if (w.audit)
        out.fail("protocol auditors flagged " +
                 std::to_string(o.violations) +
                 " violations (report on stderr)");
}

// ---------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------

void
measureSim(const Workload &w, std::uint64_t seed, double budgetS,
           Output &out)
{
    // Untimed warm-up repeat: first-touch page faults and allocator
    // growth stay out of the timings. It also fixes the reference hash.
    const SimOutcome ref = runSim(w, seed, false);
    std::vector<double> run, wall, setup;
    std::uint64_t attempted = 0, failed = 0;
    CpuRotation cpus;
    const auto t0 = Clock::now();
    while (run.size() < 5 || secondsSince(t0) < budgetS) {
        cpus.next();
        const SimOutcome o = runSim(w, seed, true);
        attempted += kNodes * kRequestsPerNode;
        failed += o.unfinished() + o.violations;
        if (o.hash != ref.hash)
            out.fail("simulated results differ between repeats");
        reportViolations(w, o, out);
        run.push_back(o.runS);
        wall.push_back(o.wallS);
        setup.push_back(o.constructS);
    }
    out.attempted = attempted;
    out.failed = failed;
    const double kops = static_cast<double>(ref.clientOps()) / 1e3;
    out.metric("host_kops_per_s", kops / fastTail(run), "kops/s");
    out.metric("wall_s", fastTail(wall), "s");
    out.metric("setup_s", fastTail(setup), "s");
    out.metric("peak_rss_mb", peakRssMb(), "MB");
    reportSimulated(out, ref);
    out.fact("host_kops_per_s_median", kops / median(run));
    out.fact("wall_s_median", median(wall));
    out.fact("setup_s_median", median(setup));
    out.fact("repeats", static_cast<double>(run.size()));
    out.fact("error_rate", ratio(static_cast<double>(failed),
                                 static_cast<double>(attempted)));
}

bool
checkOk(const check::CheckResult &r, Output &out)
{
    if (!r.ok()) {
        out.fail("model checker reported a violation");
        return false;
    }
    if (r.statesExplored != kCheckStates) {
        out.fail("model checker state count changed: " +
                 std::to_string(r.statesExplored));
        return false;
    }
    return true;
}

/**
 * checkModel has no set-up step apart from its exploration, so the
 * checker's fixed cost per call (validation, initial state, container
 * set-up) is timed on the smallest model it accepts: 2 nodes, 1 write.
 */
double
checkSetupS()
{
    check::CheckConfig cc;
    cc.numNodes = 2;
    cc.writers = {0};
    CpuRotation cpus;
    std::vector<double> v;
    const std::size_t rounds = std::max<std::size_t>(cpus.size(), 1);
    for (std::size_t c = 0; c < rounds; ++c) {
        cpus.next();
        for (int i = 0; i <= kCheckSetupCallsPerCpu; ++i) {
            const auto t = Clock::now();
            const auto r = check::checkModel(cc);
            if (!r.ok() || r.statesExplored == 0)
                std::abort();
            if (i) // the first call on each CPU is a warm-up
                v.push_back(secondsSince(t));
        }
    }
    return fastTail(v);
}

void
measureCheck(double budgetS, Output &out)
{
    const double setupS = checkSetupS();
    std::vector<double> wall;
    CpuRotation cpus;
    // At least one repeat per CPU: with 3-5 s per check, a run has
    // few repeats, and one that skipped the least loaded CPU read slow.
    const std::size_t minRepeats = std::max<std::size_t>(3, cpus.size());
    const auto t0 = Clock::now();
    while (wall.size() < minRepeats || secondsSince(t0) < budgetS) {
        cpus.next();
        const auto t = Clock::now();
        const auto r = check::checkModel(checkConfig());
        wall.push_back(secondsSince(t));
        ++out.attempted;
        if (!checkOk(r, out))
            ++out.failed;
    }
    const double kstates = static_cast<double>(kCheckStates) / 1e3;
    out.metric("host_kops_per_s", kstates / fastTail(wall), "kops/s");
    out.metric("wall_s", fastTail(wall), "s");
    out.metric("setup_s", setupS, "s");
    out.metric("peak_rss_mb", peakRssMb(), "MB");
    out.fact("wall_s_median", median(wall));
    out.fact("repeats", static_cast<double>(wall.size()));
    out.fact("error_rate", ratio(static_cast<double>(out.failed),
                                 static_cast<double>(out.attempted)));
    out.fact("check_states", static_cast<double>(kCheckStates));
}

/** Per-layer metrics measured on the simulation workloads. */
const char *const kSimLayerMetrics[][2] = {
    {"sim.events_per_op", "events/op"},
    {"sim.cond_wakeups_proxy", "events/op"},
    {"sim.heap_pushes_per_op", "events/op"},
    {"sim.ring_hit_rate", "frac"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.allocs_per_op", "allocs/op"},
    {"sim.events_executed", "count"},
    {"sim.heap_pushes", "count"},
    {"sim.allocs", "count"},
    {"sim.client_ops", "count"},
    {"sim.peak_heap", "count"},
    {"sim.peak_ring", "count"},
    {"sim.after_ns", "ns"},
    {"sim.resume_soon_ns", "ns"},
    {"sim.cond_notify_ns", "ns"},
    {"sim.corepool_compute_ns", "ns"},
    {"sim.link_transfer_ns", "ns"},
    {"sim.serial_stage_ns", "ns"},
    {"sim.mailbox_ns", "ns"},
    {"sim.alloc_ns", "ns"},
    {"sim.write_p50_us", "sim_us"},
    {"sim.write_p99_us", "sim_us"},
    {"sim.read_p99_us", "sim_us"},
    {"sim.mops", "sim_Mops/s"},
    {"kv.store_at_ns", "ns"},
    {"kv.setup_ns_per_record", "ns"},
    {"nvm.append_ns", "ns"},
    {"nvm.appends_per_write", "count/write"},
    {"nvm.log_entries", "count"},
    {"proto.msgs_per_write", "msgs/write"},
    {"proto.obsolete_frac", "frac"},
    {"proto.rdlock_snatches_per_write", "count/write"},
    {"phase.lock_wait_p50_us", "sim_us"},
    {"phase.inv_fanout_p50_us", "sim_us"},
    {"phase.persist_p50_us", "sim_us"},
    {"phase.ack_gather_p50_us", "sim_us"},
    {"phase.val_p50_us", "sim_us"},
    {"snic.vfifo_peak", "count"},
    {"snic.dfifo_peak", "count"},
    {"snic.vfifo_skipped_frac", "frac"},
    {"obs.records_per_op", "records/op"},
    {"obs.record_ns", "ns"},
    {"obs.record_sink_ns", "ns"},
    {"obs.audit.index_ns_per_record", "ns"},
    {"obs.audit.consistency_ns_per_record", "ns"},
    {"obs.audit.persistency_ns_per_record", "ns"},
    {"obs.audit.acks_ns_per_record", "ns"},
    {"obs.audit.fifo_ns_per_record", "ns"},
    {"workload.gen_ns_per_op", "ns"},
    {"span.construct_s", "s"},
    {"span.deal_s", "s"},
    {"span.sim_run_s", "s"},
    {"span.audit_finish_s", "s"},
};

/** Per-layer metrics measured on check_synch_3w. */
const char *const kCheckLayerMetrics[][2] = {
    {"check.states", "count"},
    {"check.transitions", "count"},
    {"check.states_per_s", "1/s"},
    {"check.bytes_per_state", "B"},
};

/**
 * Common tail of both trace modes. The output names every per-layer
 * metric on every workload; one the workload does not exercise reads 0
 * and is listed in not_measured with @p why, so it is not taken for a
 * measurement.
 */
void
finishTrace(Output &out, const std::map<std::string, double> &layer,
            const std::map<std::string, std::string> &why,
            double attributed, double overhead, double exportS)
{
    auto emit = [&](const char *name, const char *unit) {
        auto it = layer.find(name);
        if (it != layer.end()) {
            out.metric(name, it->second, unit);
            return;
        }
        out.metric(name, 0.0, unit);
        const std::string prefix = std::string(name).substr(
            0, std::string(name).find('.'));
        auto r = why.find(prefix);
        out.notMeasured.push_back(
            {name, r != why.end() ? r->second : "not run by this workload"});
    };
    for (const auto &m : kSimLayerMetrics)
        emit(m[0], m[1]);
    for (const auto &m : kCheckLayerMetrics)
        emit(m[0], m[1]);
    out.metric("span.export_s", exportS, "s");
    out.metric("attributed_frac", attributed, "frac");
    out.metric("trace.overhead_frac", overhead, "frac");
}

void
writeSpans(const SpanLog &spans, const std::string &dir,
           const std::string &stem, const std::string &recorderJson)
{
    if (dir.empty())
        return;
    std::ofstream(dir + "/" + stem + ".spans.json") << spans.json();
    if (!recorderJson.empty())
        std::ofstream(dir + "/" + stem + ".recorder.json") << recorderJson;
}

void
traceSim(const Workload &w, std::uint64_t seed, double budgetS,
         const std::string &outDir, const std::string &stem, Output &out)
{
    // The untimed reference repeat carries no marker event, so its
    // event-core counters are the workload's own, exactly.
    const SimOutcome ref = runSim(w, seed, false);
    SpanLog spans;
    std::vector<double> bareRun, tracedRun;
    std::unique_ptr<Observers> last;
    SimOutcome bare, traced;
    CpuRotation cpus;
    const auto t0 = Clock::now();
    // Alternate bare and traced repeats, on the same CPU, so drift hits
    // both alike.
    while (bareRun.size() < 2 || secondsSince(t0) < budgetS / 2) {
        cpus.next();
        bare = runSim(w, seed, true);
        bareRun.push_back(bare.runS);
        auto obsv = std::make_unique<Observers>();
        traced = runSim(w, seed, true, obsv.get(), &spans);
        tracedRun.push_back(traced.runS);
        out.attempted += 2 * kNodes * kRequestsPerNode;
        out.failed += bare.unfinished() + traced.unfinished() +
                      (w.audit ? traced.violations : 0);
        if (bare.hash != ref.hash || traced.hash != ref.hash)
            out.fail("simulated results differ between bare and traced "
                     "repeats");
        if (bareRun.size() == 1)
            reportViolations(w, traced, out);
        last = std::move(obsv);
    }
    const Observers &o = *last;
    const auto &ec = ref.res.eventCore;
    const double ops = static_cast<double>(ref.clientOps());
    const double writes = static_cast<double>(ref.res.writes);
    const double bareNsPerOp = fastTail(bareRun) * 1e9 / ops;
    const auto &agg = ref.agg;
    const double msgs = static_cast<double>(agg.invsSent + agg.valsSent +
                                            agg.acksSent);
    const double records = static_cast<double>(o.capture.stream().size());

    std::map<std::string, double> m;
    m["sim.events_per_op"] = ec.eventsExecuted / ops;
    m["sim.cond_wakeups_proxy"] = ec.readyRingHits / ops;
    m["sim.heap_pushes_per_op"] = ec.heapPushes / ops;
    m["sim.ring_hit_rate"] = ec.ringHitRate();
    m["sim.host_ns_per_event"] =
        fastTail(bareRun) * 1e9 / ec.eventsExecuted;
    m["sim.allocs_per_op"] = bare.allocs / ops;
    m["sim.events_executed"] = static_cast<double>(ec.eventsExecuted);
    m["sim.heap_pushes"] = static_cast<double>(ec.heapPushes);
    m["sim.allocs"] = static_cast<double>(bare.allocs);
    m["sim.client_ops"] = ops;
    m["sim.peak_heap"] = static_cast<double>(ec.peakHeapSize);
    m["sim.peak_ring"] = static_cast<double>(ec.peakRingSize);
    m["sim.write_p50_us"] = ref.res.writeLat.p50() / 1e3;
    m["sim.write_p99_us"] = ref.res.writeLat.p99() / 1e3;
    m["sim.read_p99_us"] = ref.res.readLat.p99() / 1e3;
    m["sim.mops"] = ref.res.totalThroughput() / 1e6;

    // Microbenchmarks, sized to what this workload hit.
    const auto cfg = clusterConfig();
    const auto dc = driverConfig(w, seed);
    const int cores = w.offload ? cfg.snicCores : cfg.hostCores;
    m["sim.after_ns"] = perfbench::afterNs(ec.peakHeapSize);
    m["sim.resume_soon_ns"] = perfbench::resumeSoonNs(ec.peakRingSize);
    m["sim.cond_notify_ns"] = perfbench::condNotifyNs(kWorkers);
    m["sim.corepool_compute_ns"] =
        perfbench::corePoolComputeNs(cores, cores + kWorkers);
    m["sim.link_transfer_ns"] =
        perfbench::linkTransferNs(cfg.recordBytes + 64);
    m["sim.serial_stage_ns"] = perfbench::serialStageNs();
    m["sim.mailbox_ns"] = perfbench::mailboxNs();
    m["sim.alloc_ns"] = perfbench::allocNs();
    std::vector<kv::Key> keys;
    for (const auto &op :
         workload::YcsbGenerator(dc.ycsb, 0).stream(kRequestsPerNode))
        keys.push_back(op.key);
    m["kv.store_at_ns"] = perfbench::storeAtNs(kRecords, keys);
    m["kv.setup_ns_per_record"] = perfbench::storeSetupNsPerRecord(kRecords);
    m["nvm.append_ns"] = perfbench::logAppendNs(ref.logEntries / kNodes);
    m["nvm.appends_per_write"] = ratio(agg.persists, writes);
    m["nvm.log_entries"] = static_cast<double>(ref.logEntries);
    m["proto.msgs_per_write"] = ratio(msgs, writes);
    m["proto.obsolete_frac"] = ratio(ref.res.obsoleteWrites, writes);
    m["proto.rdlock_snatches_per_write"] = ratio(agg.rdLockSnatches, writes);
    const char *phaseKeys[obs::numPhases] = {
        "phase.lock_wait_p50_us", "phase.inv_fanout_p50_us",
        "phase.persist_p50_us", "phase.ack_gather_p50_us",
        "phase.val_p50_us"};
    for (int p = 0; p < obs::numPhases; ++p)
        m[phaseKeys[p]] =
            o.phases.series(static_cast<obs::Phase>(p)).p50() / 1e3;
    if (w.offload) {
        m["snic.vfifo_peak"] = static_cast<double>(ref.vfifoPeak);
        m["snic.dfifo_peak"] = static_cast<double>(ref.dfifoPeak);
        m["snic.vfifo_skipped_frac"] =
            ratio(static_cast<double>(ref.vfifoSkipped),
                  o.capture.count(obs::EventKind::FollowerEnqueued));
    }
    m["obs.records_per_op"] = records / ops;
    m["obs.record_ns"] = perfbench::recordNs();
    m["obs.record_sink_ns"] = perfbench::recordSinkNs();
    const auto audit =
        perfbench::auditReplayNs(o.audit.config(), o.capture.stream());
    m["obs.audit.index_ns_per_record"] = audit.index;
    m["obs.audit.consistency_ns_per_record"] = audit.consistency;
    m["obs.audit.persistency_ns_per_record"] = audit.persistency;
    m["obs.audit.acks_ns_per_record"] = audit.acks;
    m["obs.audit.fifo_ns_per_record"] = audit.fifo;
    m["workload.gen_ns_per_op"] =
        perfbench::ycsbGenNsPerOp(dc.ycsb, kNodes, kRequestsPerNode);
    m["span.construct_s"] = spans.medianSeconds("construct");
    m["span.deal_s"] = spans.medianSeconds("workload.deal");
    m["span.sim_run_s"] = spans.medianSeconds("sim.run");
    m["span.audit_finish_s"] = spans.medianSeconds("audit.finish");

    // Attribution: Σ(ns per call × calls per op) over the layers whose
    // per-op call counts the public counters give, against the bare
    // sim.run ns/op. Stream generation is outside sim.run, so it is not
    // in the sum.
    const double storeAccesses =
        ref.res.reads + ref.res.writes + agg.invsReceived +
        agg.acksReceived + agg.valsReceived;
    double explained =
        m["sim.resume_soon_ns"] * ec.readyRingHits / ops +
        m["sim.after_ns"] * ec.heapPushes / ops +
        m["sim.alloc_ns"] * m["sim.allocs_per_op"] +
        (m["sim.link_transfer_ns"] + m["sim.serial_stage_ns"]) * msgs / ops +
        m["kv.store_at_ns"] * storeAccesses / ops +
        m["nvm.append_ns"] * agg.persists / ops;
    if (w.audit)
        explained += records / ops *
                     (m["obs.record_sink_ns"] + audit.index +
                      audit.consistency + audit.persistency + audit.acks +
                      audit.fifo);

    const auto tExport = Clock::now();
    writeSpans(spans, outDir, stem, obs::chromeTraceJson(o.recorder));
    const double exportS = secondsSince(tExport);
    finishTrace(out, m,
                {{"check", "model checker runs only in check_synch_3w"},
                 {"snic", "MINOS-B has no SmartNIC FIFOs"}},
                explained / bareNsPerOp,
                fastTail(tracedRun) / fastTail(bareRun) - 1.0, exportS);
    reportSimulated(out, ref);
    out.fact("audit_findings", static_cast<double>(traced.violations));
    out.fact("error_rate", ratio(static_cast<double>(out.failed),
                                 static_cast<double>(out.attempted)));
}

void
traceCheck(double budgetS, const std::string &outDir,
           const std::string &stem, Output &out)
{
    SpanLog spans;
    std::vector<double> bareS, tracedS;
    check::CheckResult traced;
    CpuRotation cpus;
    const auto t0 = Clock::now();
    // Alternate bare and traced passes, as traceSim does; one pair
    // already takes most of a 10 s budget.
    while (bareS.empty() || secondsSince(t0) < budgetS) {
        cpus.next();
        auto t = Clock::now();
        const auto bare = check::checkModel(checkConfig());
        bareS.push_back(secondsSince(t));
        ++out.attempted;
        if (!checkOk(bare, out))
            ++out.failed;

        g_liveBytes = g_peakLiveBytes = 0;
        g_trackLive = true;
        t = Clock::now();
        {
            const SpanScope s(&spans, "check.run");
            traced = check::checkModel(checkConfig());
        }
        tracedS.push_back(secondsSince(t));
        g_trackLive = false;
        ++out.attempted;
        if (!checkOk(traced, out))
            ++out.failed;
    }

    std::map<std::string, double> m;
    const double states = static_cast<double>(traced.statesExplored);
    m["check.states"] = states;
    m["check.transitions"] = static_cast<double>(traced.transitions);
    m["check.states_per_s"] = states / fastTail(bareS);
    m["check.bytes_per_state"] =
        static_cast<double>(g_peakLiveBytes) / states;
    const auto tExport = Clock::now();
    writeSpans(spans, outDir, stem, "");
    const double exportS = secondsSince(tExport);
    // The checker is one layer with no finer public entry point, so its
    // single timed call explains all of its wall time.
    const char *noSim = "the model checker runs no simulation";
    finishTrace(out, m,
                {{"sim", noSim}, {"kv", noSim}, {"nvm", noSim},
                 {"proto", noSim}, {"phase", noSim}, {"snic", noSim},
                 {"obs", noSim}, {"workload", noSim}, {"span", noSim}},
                1.0, fastTail(tracedS) / fastTail(bareS) - 1.0, exportS);
    out.fact("repeats", static_cast<double>(bareS.size()));
    out.fact("error_rate", ratio(static_cast<double>(out.failed),
                                 static_cast<double>(out.attempted)));
}

/** The workload's inputs, for the result file's provenance. */
std::string
configJson(const Workload &w, std::uint64_t seed)
{
    char buf[512];
    if (w.check) {
        std::snprintf(buf, sizeof buf,
                      "{\"checker\":\"checkModel\",\"model\":\"synch\","
                      "\"nodes\":3,\"writers\":[0,1,2],"
                      "\"expected_states\":%zu}",
                      kCheckStates);
    } else {
        const auto dc = driverConfig(w, seed);
        std::snprintf(buf, sizeof buf,
                      "{\"engine\":\"%s\",\"model\":\"%s\","
                      "\"ycsb\":\"%c\",\"write_frac\":%g,"
                      "\"zipf_theta\":%g,\"nodes\":%d,\"records\":%llu,"
                      "\"record_bytes\":%u,\"workers_per_node\":%d,"
                      "\"requests_per_node\":%llu,\"audit\":%s,"
                      "\"seed\":%llu,\"threads\":1}",
                      w.offload ? "MINOS-O" : "MINOS-B",
                      std::string(simproto::shortModelName(w.model)).c_str(),
                      w.ycsb, dc.ycsb.writeFraction, dc.ycsb.zipfTheta,
                      kNodes, static_cast<unsigned long long>(kRecords),
                      dc.ycsb.recordBytes, kWorkers,
                      static_cast<unsigned long long>(kRequestsPerNode),
                      w.audit ? "true" : "false",
                      static_cast<unsigned long long>(seed));
    }
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags(argc, argv);
    const auto unknown = flags.unknownFlags(
        {"workload", "seed", "seconds", "mode", "out-dir"});
    const Workload *w = findWorkload(flags.getString("workload", ""));
    const std::string mode = flags.getString("mode", "measure");
    if (!unknown.empty() || !w || (mode != "measure" && mode != "trace")) {
        std::fprintf(stderr,
                     "usage: %s --workload=NAME --seed=N --seconds=S "
                     "--mode=measure|trace [--out-dir=DIR]\n",
                     argv[0]);
        return 2;
    }
#ifndef __OPTIMIZE__
    std::fprintf(stderr,
                 "refusing to report host metrics from an unoptimised "
                 "build\n");
    return 3;
#endif
    // Fixed thresholds turn off glibc's dynamic mmap threshold, which
    // otherwise depends on what earlier repeats freed: with it, whether a
    // construction reuses heap pages or faults in fresh ones varied from
    // run to run (set-up time 9 ms or 21 ms). Now every construction
    // faults in its stores, as a fresh process does.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    mallopt(M_TRIM_THRESHOLD, 128 * 1024);
    const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
    const double budgetS = flags.getDouble("seconds", 10);
    const std::string outDir = flags.getString("out-dir", "");
    const std::string stem =
        std::string(w->name) + "-seed" + std::to_string(seed);

    Output out;
    if (mode == "measure") {
        if (w->check)
            measureCheck(budgetS, out);
        else
            measureSim(*w, seed, budgetS, out);
    } else if (w->check) {
        traceCheck(budgetS, outDir, stem, out);
    } else {
        traceSim(*w, seed, budgetS, outDir, stem, out);
    }
    if (out.failed > 0)
        out.correct = false;
    out.report.push_back({"config", configJson(*w, seed)});
    out.report.push_back({"build_type", "\"" PERFBENCH_BUILD_TYPE "\""});
    out.report.push_back({"cxx_flags", "\"" PERFBENCH_CXX_FLAGS "\""});
    out.print();
    return out.correct ? 0 : 1;
}
