/**
 * @file
 * Raw event-throughput microbenchmark for the simulator's event core.
 *
 * Measures events/sec on three workload shapes:
 *  - timer_heavy: many outstanding timers, pseudorandom future delays
 *    (stresses the timed heap);
 *  - wakeup_heavy: `after(0, ...)` self-rescheduling chains — the
 *    condition/mailbox wakeup pattern (stresses the ready ring);
 *  - mixed: a 50/50 blend of the two;
 * plus coro_wakeup, a Condition ping-pong between coroutine processes
 * exercising the dedicated coroutine-resume representation, and two
 * short protocol runs on top of the core (MINOS-B <Lin,Synch> and
 * MINOS-O <Lin,Strict>, YCSB-A) that gate the protocol hot path's
 * allocations per client op.
 *
 * Each closure carries a 64-byte payload, mirroring the protocol
 * layers' message-delivery closures (node pointer + net::Message).
 *
 * Every workload runs on two engines:
 *  - legacy: a faithful replica of the pre-rewrite core
 *    (std::function events in a std::priority_queue, copy-out pop);
 *  - event_core: the production sim::Simulator (EventFn + ready ring +
 *    4-ary move-out heap).
 *
 * A global operator new/delete hook counts allocations; the bench
 * FAILS (exit 1) if the event core allocates during steady-state
 * dispatch of the three closure workloads, or if a protocol run
 * allocates more than protocolAllocBound times per client op. Under
 * AddressSanitizer the frame pool is off, so the protocol runs are
 * reported as skipped. Output is a single JSON
 * object on stdout (see bench/README.md), so future PRs can track the
 * perf trajectory machine-readably. `MINOS_BENCH_EVENTS` scales the
 * per-workload event count (default 1,000,000).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <queue>
#include <string>
#include <vector>

#include "common/units.hh"
#include "sim/condition.hh"
#include "sim/process.hh"
#include "sim/simulator.hh"
#include "simproto/cluster_b.hh"
#include "simproto/driver.hh"
#include "snic/cluster_o.hh"

using minos::Tick;

// ---------------------------------------------------------------------
// Allocation-counting hook
// ---------------------------------------------------------------------

namespace {

std::uint64_t g_allocs = 0;
std::uint64_t g_frees = 0;
std::uint64_t g_allocBytes = 0;

struct AllocSnapshot
{
    std::uint64_t allocs, frees, bytes;
};

AllocSnapshot
allocSnapshot()
{
    return {g_allocs, g_frees, g_allocBytes};
}

} // namespace

void *
operator new(std::size_t n)
{
    ++g_allocs;
    g_allocBytes += n;
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

// The nothrow forms must come from the same malloc as the deletes below
// (std::stable_sort's buffer uses them).
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++g_allocs;
    g_allocBytes += n;
    return std::malloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return ::operator new(n, std::nothrow);
}

void
operator delete(void *p) noexcept
{
    if (p) {
        ++g_frees;
        std::free(p);
    }
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

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}

namespace {

// ---------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------

/** Replica of the pre-rewrite event core (the comparison baseline). */
class LegacyEngine
{
  public:
    static constexpr const char *name = "legacy";

    Tick now() const { return now_; }

    void
    after(Tick delay, std::function<void()> fn)
    {
        q_.push(Ev{now_ + delay, seq_++, std::move(fn)});
    }

    void
    run()
    {
        while (!q_.empty()) {
            // Copy-out pop, exactly as the old Simulator::run() did.
            Ev ev = q_.top();
            q_.pop();
            now_ = ev.when;
            ev.fn();
        }
    }

  private:
    struct Ev
    {
        Tick when;
        std::uint64_t seq;
        std::function<void()> fn;

        bool
        operator>(const Ev &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Ev, std::vector<Ev>, std::greater<>> q_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
};

/** The production event core. */
class ModernEngine
{
  public:
    static constexpr const char *name = "event_core";

    Tick now() const { return sim_.now(); }

    void
    after(Tick delay, minos::sim::EventFn fn)
    {
        sim_.after(delay, std::move(fn));
    }

    void run() { sim_.run(); }

    minos::sim::Simulator &sim() { return sim_; }

  private:
    minos::sim::Simulator sim_;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** Mirrors the size of a message-delivery capture (ptr + Message). */
struct Payload
{
    std::uint64_t words[8] = {1, 2, 3, 4, 5, 6, 7, 8};
};

enum class Shape
{
    TimerHeavy,
    WakeupHeavy,
    Mixed,
};

/**
 * A self-rescheduling event chain. Each firing consumes its payload
 * (checksummed into *sink so nothing is optimized away) and, while the
 * shared budget lasts, schedules its successor per the workload shape.
 */
template <typename Engine>
struct Chain
{
    Engine *eng;
    std::uint64_t *budget;
    std::uint64_t *sink;
    std::uint32_t rng;
    Shape shape;
    Payload payload;

    std::uint32_t
    next()
    {
        rng = rng * 1664525u + 1013904223u;
        return rng >> 8;
    }

    Tick
    nextDelay()
    {
        switch (shape) {
        case Shape::TimerHeavy:
            return 1 + static_cast<Tick>(next() % 1000);
        case Shape::WakeupHeavy:
            return 0;
        case Shape::Mixed:
            return (next() & 1)
                       ? 0
                       : 1 + static_cast<Tick>(next() % 1000);
        }
        return 0;
    }

    void
    operator()()
    {
        *sink += payload.words[0] + payload.words[7];
        if (*budget == 0)
            return;
        --*budget;
        Chain c = *this;
        ++c.payload.words[0];
        Tick d = c.nextDelay();
        eng->after(d, std::move(c));
    }
};

/** One measured run; the engine must be pre-warmed by the caller. */
template <typename Engine>
struct Measurement
{
    double ns = 0;
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t allocBytes = 0;
};

template <typename Engine>
Measurement<Engine>
runClosureWorkload(Engine &eng, Shape shape, std::uint64_t events,
                   int chains, std::uint64_t *sink)
{
    std::uint64_t budget = events;
    for (int i = 0; i < chains; ++i) {
        Chain<Engine> c{&eng, &budget, sink,
                        0x9e3779b9u + static_cast<std::uint32_t>(i),
                        shape, Payload{}};
        Tick d = c.nextDelay();
        eng.after(d, std::move(c));
    }

    AllocSnapshot before = allocSnapshot();
    auto t0 = std::chrono::steady_clock::now();
    eng.run();
    auto t1 = std::chrono::steady_clock::now();
    AllocSnapshot after = allocSnapshot();

    Measurement<Engine> m;
    m.ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    m.events = events + static_cast<std::uint64_t>(chains);
    m.allocs = after.allocs - before.allocs;
    m.frees = after.frees - before.frees;
    m.allocBytes = after.bytes - before.bytes;
    return m;
}

// ---------------------------------------------------------------------
// Coroutine ping-pong (event_core only): raw resume representation
// ---------------------------------------------------------------------

minos::sim::Process
player(minos::sim::Condition *my, minos::sim::Condition *other,
       bool *token, bool mine, std::uint64_t *budget,
       std::uint64_t *sink)
{
    for (;;) {
        while (*token != mine)
            co_await my->wait();
        if (*budget == 0) {
            *token = !mine;
            other->notifyAll();
            break;
        }
        --*budget;
        *sink += *budget;
        *token = !mine;
        other->notifyAll();
    }
}

Measurement<ModernEngine>
runCoroWorkload(ModernEngine &eng, std::uint64_t events,
                std::uint64_t *sink)
{
    auto &sim = eng.sim();
    minos::sim::Condition a(sim), b(sim);
    bool token = true;
    std::uint64_t budget = events / 2; // two wakeup events per exchange
    std::uint64_t executedBefore = sim.eventsExecuted();
    sim.spawn(player(&a, &b, &token, true, &budget, sink));
    sim.spawn(player(&b, &a, &token, false, &budget, sink));

    AllocSnapshot before = allocSnapshot();
    auto t0 = std::chrono::steady_clock::now();
    sim.run();
    auto t1 = std::chrono::steady_clock::now();
    AllocSnapshot after = allocSnapshot();

    Measurement<ModernEngine> m;
    m.ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    m.events = sim.eventsExecuted() - executedBefore;
    m.allocs = after.allocs - before.allocs;
    m.frees = after.frees - before.frees;
    m.allocBytes = after.bytes - before.bytes;
    return m;
}

// ---------------------------------------------------------------------
// Protocol runs: allocations per client op of the simulated protocols
// ---------------------------------------------------------------------

/**
 * Allowed allocations per client op. Not 0: a node's sparse
 * nextLocalVersion_ map gains an entry on each key's first write (see
 * DESIGN.md §5f), and the latency series grow.
 */
constexpr double protocolAllocBound = 2.0;

struct ProtocolRun
{
    const char *name;
    std::uint64_t ops = 0;
    std::uint64_t allocs = 0;

    double
    allocsPerOp() const
    {
        return ops ? static_cast<double>(allocs) / ops : 0.0;
    }
};

/** One run of a short YCSB-A workload; counts the allocations made
 *  while sim.run() dispatches (construction and stream generation are
 *  outside). */
template <typename ClusterT>
void
runProtocolOnce(minos::simproto::PersistModel model,
                minos::simproto::OffloadOptions opts, ProtocolRun &out)
{
    namespace sp = minos::simproto;
    minos::sim::Simulator sim;
    sp::ClusterConfig cfg;
    cfg.numNodes = 5;
    cfg.numRecords = 10'000;
    ClusterT cluster(sim, cfg, model, opts);
    sp::DriverConfig dc;
    dc.requestsPerNode = 1000;
    dc.workersPerNode = 5;
    dc.ycsb = minos::workload::ycsbPreset('A');
    dc.ycsb.numRecords = cfg.numRecords;
    dc.ycsb.requestsPerNode = dc.requestsPerNode;
    dc.ycsb.seed = 7;

    // Queued ahead of the workers, so it runs first in sim.run().
    std::uint64_t allocsAtStart = 0;
    sim.after(0, [&allocsAtStart] { allocsAtStart = g_allocs; });
    sp::RunResult res = sp::runWorkload(sim, cluster, dc);
    out.allocs = g_allocs - allocsAtStart;
    out.ops = res.reads + res.writes + res.persistLat.count();
}

/** Warm the frame pool with one run, then measure a second. */
template <typename ClusterT>
ProtocolRun
runProtocol(const char *name, minos::simproto::PersistModel model,
            minos::simproto::OffloadOptions opts)
{
    ProtocolRun run{name};
    runProtocolOnce<ClusterT>(model, opts, run);
    runProtocolOnce<ClusterT>(model, opts, run);
    return run;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

const char *
shapeName(Shape s)
{
    switch (s) {
    case Shape::TimerHeavy:
        return "timer_heavy";
    case Shape::WakeupHeavy:
        return "wakeup_heavy";
    case Shape::Mixed:
        return "mixed";
    }
    return "?";
}

template <typename Engine>
std::string
resultJson(const char *workload, const char *engine,
           const Measurement<Engine> &m)
{
    char buf[512];
    double eps = m.ns > 0 ? static_cast<double>(m.events) * 1e9 / m.ns
                          : 0.0;
    std::snprintf(buf, sizeof buf,
                  "    {\"workload\":\"%s\",\"engine\":\"%s\","
                  "\"events\":%llu,\"wall_ns\":%.0f,"
                  "\"events_per_sec\":%.0f,\"allocs\":%llu,"
                  "\"frees\":%llu,\"alloc_bytes\":%llu}",
                  workload, engine,
                  static_cast<unsigned long long>(m.events), m.ns, eps,
                  static_cast<unsigned long long>(m.allocs),
                  static_cast<unsigned long long>(m.frees),
                  static_cast<unsigned long long>(m.allocBytes));
    return buf;
}

} // namespace

int
main()
{
    std::uint64_t events = 1'000'000;
    if (const char *env = std::getenv("MINOS_BENCH_EVENTS")) {
        // Unparseable or zero values keep the default rather than
        // silently benchmarking nothing.
        if (std::uint64_t n = std::strtoull(env, nullptr, 10))
            events = n;
    }
    // Outstanding chains: timer_heavy keeps a deep heap, wakeup_heavy a
    // busy ring.
    const int timerChains = 4096;
    const int wakeupChains = 64;

    std::uint64_t sink = 0;
    std::vector<std::string> results;
    double legacyEps[3] = {0, 0, 0};
    double modernEps[3] = {0, 0, 0};
    std::uint64_t modernAllocs[3] = {0, 0, 0};
    const Shape shapes[3] = {Shape::TimerHeavy, Shape::WakeupHeavy,
                             Shape::Mixed};

    for (int i = 0; i < 3; ++i) {
        Shape shape = shapes[i];
        int chains =
            shape == Shape::WakeupHeavy ? wakeupChains : timerChains;

        {
            LegacyEngine eng;
            // Warm containers, then measure on the same engine.
            runClosureWorkload(eng, shape, events / 10, chains, &sink);
            auto m = runClosureWorkload(eng, shape, events, chains,
                                        &sink);
            legacyEps[i] =
                static_cast<double>(m.events) * 1e9 / m.ns;
            results.push_back(
                resultJson(shapeName(shape), LegacyEngine::name, m));
        }
        {
            ModernEngine eng;
            runClosureWorkload(eng, shape, events / 10, chains, &sink);
            auto m = runClosureWorkload(eng, shape, events, chains,
                                        &sink);
            modernEps[i] =
                static_cast<double>(m.events) * 1e9 / m.ns;
            modernAllocs[i] = m.allocs;
            results.push_back(
                resultJson(shapeName(shape), ModernEngine::name, m));
        }
    }

    // Dedicated coroutine-resume path (no legacy equivalent: the old
    // core had no raw-resume representation at all).
    ModernEngine coroEng;
    runCoroWorkload(coroEng, events / 10, &sink);
    auto coro = runCoroWorkload(coroEng, events, &sink);
    results.push_back(
        resultJson("coro_wakeup", ModernEngine::name, coro));
    auto counters = coroEng.sim().counters();

    bool zeroAlloc = modernAllocs[0] == 0 && modernAllocs[1] == 0 &&
                     modernAllocs[2] == 0;

    using minos::simproto::PersistModel;
    std::vector<ProtocolRun> protocol;
    if (minos::sim::FramePool::enabled) {
        protocol.push_back(runProtocol<minos::simproto::ClusterB>(
            "b_synch_ycsb_a", PersistModel::Synch,
            minos::simproto::OffloadOptions::minosB()));
        protocol.push_back(runProtocol<minos::snic::ClusterO>(
            "o_strict_ycsb_a", PersistModel::Strict,
            minos::simproto::OffloadOptions::minosO()));
    }
    bool protocolOk = true;
    for (const ProtocolRun &r : protocol)
        protocolOk = protocolOk && r.allocsPerOp() <= protocolAllocBound;

    std::printf("{\n  \"bench\": \"sim_core\",\n");
    std::printf("  \"events_per_workload\": %llu,\n",
                static_cast<unsigned long long>(events));
    std::printf("  \"results\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i)
        std::printf("%s%s\n", results[i].c_str(),
                    i + 1 < results.size() ? "," : "");
    std::printf("  ],\n");
    std::printf("  \"speedup\": {");
    for (int i = 0; i < 3; ++i)
        std::printf("%s\"%s\": %.2f", i ? ", " : "",
                    shapeName(shapes[i]),
                    modernEps[i] / legacyEps[i]);
    std::printf("},\n");
    std::printf("  \"event_core_counters\": %s,\n",
                counters.json().c_str());
    std::printf("  \"steady_state_zero_alloc\": %s,\n",
                zeroAlloc ? "true" : "false");
    std::printf("  \"protocol_allocs_per_op_bound\": %.1f,\n",
                protocolAllocBound);
    if (protocol.empty()) {
        std::printf("  \"protocol\": \"skipped\",\n");
    } else {
        std::printf("  \"protocol\": [\n");
        for (std::size_t i = 0; i < protocol.size(); ++i) {
            const ProtocolRun &r = protocol[i];
            std::printf("    {\"run\":\"%s\",\"ops\":%llu,"
                        "\"allocs\":%llu,\"allocs_per_op\":%.4f}%s\n",
                        r.name, static_cast<unsigned long long>(r.ops),
                        static_cast<unsigned long long>(r.allocs),
                        r.allocsPerOp(),
                        i + 1 < protocol.size() ? "," : "");
        }
        std::printf("  ],\n");
    }
    std::printf("  \"checksum\": %llu\n}\n",
                static_cast<unsigned long long>(sink));

    if (!zeroAlloc) {
        std::fprintf(stderr,
                     "sim_core: FAIL: event core allocated during "
                     "steady-state dispatch\n");
        return 1;
    }
    if (!protocolOk) {
        std::fprintf(stderr,
                     "sim_core: FAIL: a protocol run allocated more than "
                     "%.1f times per client op\n",
                     protocolAllocBound);
        return 1;
    }
    return 0;
}
