#include "micro.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <new>

#include "kv/store.hh"
#include "nvm/log.hh"
#include "obs/optrace.hh"
#include "sim/condition.hh"
#include "sim/network.hh"
#include "sim/process.hh"
#include "sim/simulator.hh"

namespace minos::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Keeps results observable so the timed loops are not folded away. */
volatile std::uint64_t g_sink = 0;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/**
 * Run @p body (which returns ns per call of one timed pass) once to
 * warm caches and allocator state, then @p reps more times, and return
 * the median.
 */
template <typename Body>
double
warmMedian(Body &&body, int reps = 5)
{
    body();
    std::vector<double> v;
    for (int i = 0; i < reps; ++i)
        v.push_back(body());
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** Self-rescheduling event: fixed delay, or pseudorandom 1..1000. */
struct Chain
{
    sim::Simulator *sim;
    std::uint64_t *budget;
    std::uint32_t rng;
    bool timed;

    void
    operator()()
    {
        if (*budget == 0)
            return;
        --*budget;
        Chain next = *this;
        next.rng = rng * 1664525u + 1013904223u;
        sim->after(timed ? 1 + static_cast<Tick>((next.rng >> 8) % 1000)
                         : 0,
                   next);
    }
};

double
chainNs(std::size_t width, bool timed)
{
    return warmMedian([&] {
        sim::Simulator sim;
        std::uint64_t budget = 200'000;
        for (std::size_t i = 0; i < width; ++i)
            Chain{&sim, &budget, 0x9e3779b9u + static_cast<std::uint32_t>(i),
                  timed}();
        auto t0 = Clock::now();
        sim.run();
        return nsSince(t0) / static_cast<double>(sim.eventsExecuted());
    });
}

sim::Process
waiter(sim::Condition *cond, std::uint64_t *wakeups, const bool *stop)
{
    while (!*stop) {
        co_await cond->wait();
        ++*wakeups;
    }
}

sim::Process
notifier(sim::Condition *cond, const std::uint64_t *wakeups,
         std::uint64_t target, bool *stop)
{
    while (*wakeups < target) {
        co_await sim::delay(1);
        cond->notifyAll();
    }
    *stop = true;
    cond->notifyAll();
}

sim::Process
computer(sim::CorePool *pool, std::uint64_t *budget)
{
    while (*budget > 0) {
        --*budget;
        co_await pool->compute(100);
    }
}

sim::Process
producer(sim::Mailbox<std::uint64_t> *mb, std::uint64_t items)
{
    for (std::uint64_t i = 0; i < items; ++i) {
        mb->send(i);
        co_await sim::delay(1);
    }
}

sim::Process
consumer(sim::Mailbox<std::uint64_t> *mb, std::uint64_t items)
{
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < items; ++i)
        sum += co_await mb->recv();
    g_sink = g_sink + sum;
}

/** The cheapest possible sink: what any attached observer costs. */
class CountingSink : public obs::RecordSink
{
  public:
    void onRecord(const obs::Record &) override { ++count_; }
    std::uint64_t count() const { return count_; }

  private:
    std::uint64_t count_ = 0;
};

template <typename Sink>
double
replayNs(const std::vector<obs::Record> &stream,
         const std::function<std::unique_ptr<Sink>()> &make)
{
    return warmMedian(
        [&] {
            auto sink = make();
            auto t0 = Clock::now();
            for (const auto &rec : stream)
                sink->onRecord(rec);
            return nsSince(t0) / static_cast<double>(stream.size());
        },
        3);
}

} // namespace

double
afterNs(std::size_t depth)
{
    return chainNs(std::max<std::size_t>(depth, 1), true);
}

double
resumeSoonNs(std::size_t width)
{
    return chainNs(std::max<std::size_t>(width, 1), false);
}

double
condNotifyNs(int waiters)
{
    return warmMedian([&] {
        sim::Simulator sim;
        sim::Condition cond(sim);
        std::uint64_t wakeups = 0;
        bool stop = false;
        for (int i = 0; i < waiters; ++i)
            sim.spawn(waiter(&cond, &wakeups, &stop));
        sim.spawn(notifier(&cond, &wakeups, 200'000, &stop));
        auto t0 = Clock::now();
        sim.run();
        return nsSince(t0) / static_cast<double>(wakeups);
    });
}

double
corePoolComputeNs(int cores, int contenders)
{
    return warmMedian([&] {
        sim::Simulator sim;
        sim::CorePool pool(sim, cores);
        const std::uint64_t calls = 100'000;
        std::uint64_t budget = calls;
        for (int i = 0; i < contenders; ++i)
            sim.spawn(computer(&pool, &budget));
        auto t0 = Clock::now();
        sim.run();
        return nsSince(t0) / static_cast<double>(calls);
    });
}

double
linkTransferNs(std::uint64_t bytes)
{
    return warmMedian([&] {
        sim::Simulator sim;
        sim::Link link(sim, 150, 7e9, 200);
        const std::uint64_t calls = 1'000'000;
        std::uint64_t sum = 0;
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < calls; ++i)
            sum += static_cast<std::uint64_t>(link.transfer(bytes + (i & 7)));
        double ns = nsSince(t0);
        g_sink = g_sink + sum;
        return ns / static_cast<double>(calls);
    });
}

double
serialStageNs()
{
    return warmMedian([&] {
        sim::SerialStage stage;
        const std::uint64_t calls = 1'000'000;
        std::uint64_t sum = 0;
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < calls; ++i)
            sum += static_cast<std::uint64_t>(
                stage.occupyFrom(static_cast<Tick>(i * 90), 100));
        double ns = nsSince(t0);
        g_sink = g_sink + sum;
        return ns / static_cast<double>(calls);
    });
}

double
mailboxNs()
{
    return warmMedian([&] {
        sim::Simulator sim;
        sim::Mailbox<std::uint64_t> mb(sim);
        const std::uint64_t items = 100'000;
        sim.spawn(consumer(&mb, items));
        sim.spawn(producer(&mb, items));
        auto t0 = Clock::now();
        sim.run();
        return nsSince(t0) / static_cast<double>(items);
    });
}

double
storeAtNs(std::uint64_t records, const std::vector<kv::Key> &keys)
{
    kv::SimStore store(records);
    return warmMedian([&] {
        std::uint64_t sum = 0;
        auto t0 = Clock::now();
        for (kv::Key k : keys) {
            kv::Record &r = store.at(k);
            r.value += 1;
            sum += static_cast<std::uint64_t>(r.volatileTs.version) +
                   r.value;
        }
        double ns = nsSince(t0);
        g_sink = g_sink + sum;
        return ns / static_cast<double>(keys.size());
    });
}

double
storeSetupNsPerRecord(std::uint64_t records)
{
    return warmMedian([&] {
        auto t0 = Clock::now();
        auto store = std::make_unique<kv::SimStore>(records);
        double ns = nsSince(t0);
        g_sink = g_sink + store->size();
        return ns / static_cast<double>(records);
    });
}

double
logAppendNs(std::size_t entries)
{
    entries = std::max<std::size_t>(entries, 1000);
    return warmMedian([&] {
        nvm::DurableLog log;
        auto t0 = Clock::now();
        for (std::size_t i = 0; i < entries; ++i)
            log.append({i % 100'000, i,
                        kv::Timestamp{static_cast<std::int64_t>(i), 1}});
        double ns = nsSince(t0);
        g_sink = g_sink + log.size();
        return ns / static_cast<double>(entries);
    });
}

namespace {

double
recordLoopNs(obs::RecordSink *sink)
{
    return warmMedian([&] {
        obs::FlightRecorder rec;
        if (sink)
            rec.addSink(sink);
        const std::uint64_t calls = 1'000'000;
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < calls; ++i)
            rec.record(static_cast<Tick>(i), obs::Category::Protocol,
                       obs::EventKind::InvFanout,
                       static_cast<std::int32_t>(i % 5),
                       static_cast<std::int64_t>(i & 0xffff),
                       static_cast<std::int64_t>(i));
        double ns = nsSince(t0);
        g_sink = g_sink + rec.recorded();
        return ns / static_cast<double>(calls);
    });
}

} // namespace

double
recordNs()
{
    return recordLoopNs(nullptr);
}

double
recordSinkNs()
{
    CountingSink sink;
    double ns = recordLoopNs(&sink);
    g_sink = g_sink + sink.count();
    return ns;
}

AuditReplayNs
auditReplayNs(const obs::AuditConfig &cfg,
              const std::vector<obs::Record> &stream)
{
    AuditReplayNs out;
    if (stream.empty())
        return out;
    // Violations render through the index; a replay that stays clean
    // never reads it, so each auditor gets an empty one.
    obs::OpTraceIndex empty;
    out.index = replayNs<obs::OpTraceIndex>(
        stream, [] { return std::make_unique<obs::OpTraceIndex>(); });
    out.consistency = replayNs<obs::ConsistencyAuditor>(stream, [&] {
        return std::make_unique<obs::ConsistencyAuditor>(&cfg, &empty);
    });
    out.persistency = replayNs<obs::PersistencyAuditor>(stream, [&] {
        return std::make_unique<obs::PersistencyAuditor>(&cfg, &empty);
    });
    out.acks = replayNs<obs::AckConservationAuditor>(stream, [&] {
        return std::make_unique<obs::AckConservationAuditor>(&cfg, &empty);
    });
    out.fifo = replayNs<obs::FifoWatchdog>(stream, [&] {
        return std::make_unique<obs::FifoWatchdog>(&cfg, &empty);
    });
    return out;
}

double
ycsbGenNsPerOp(const workload::YcsbConfig &cfg, int nodes,
               std::uint64_t requestsPerNode)
{
    return warmMedian([&] {
        std::uint64_t sum = 0;
        auto t0 = Clock::now();
        for (int n = 0; n < nodes; ++n) {
            workload::YcsbGenerator gen(cfg, static_cast<std::uint32_t>(n));
            sum += gen.stream(requestsPerNode).size();
        }
        double ns = nsSince(t0);
        g_sink = g_sink + sum;
        return ns / static_cast<double>(sum);
    });
}

double
allocNs()
{
    return warmMedian([&] {
        // A ring of live blocks, so each new/delete pair reuses memory
        // the way short-lived coroutine frames do.
        void *live[64] = {};
        const std::uint64_t calls = 1'000'000;
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < calls; ++i) {
            void *&slot = live[i & 63];
            ::operator delete(slot);
            slot = ::operator new(192 + (i & 3) * 32);
        }
        double ns = nsSince(t0);
        for (void *p : live)
            ::operator delete(p);
        return ns / static_cast<double>(calls);
    });
}

} // namespace minos::perfbench
