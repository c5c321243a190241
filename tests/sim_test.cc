/**
 * @file
 * Unit tests for the discrete-event simulator core: event ordering,
 * coroutine processes, tasks, conditions, mailboxes, links, core pools,
 * the frame pool, the allocation gates (steady-state dispatch allocates
 * nothing, the protocol hot path at most twice per client op), and
 * golden MINOS-B/MINOS-O runs that pin the dispatch order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc_hook.hh"
#include "nvm/model.hh"
#include "sim/condition.hh"
#include "sim/network.hh"
#include "sim/process.hh"
#include "sim/simulator.hh"
#include "snic/run.hh"

using namespace minos;
using namespace minos::sim;

TEST(Simulator, StartsAtZero)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0);
    EXPECT_EQ(sim.eventsExecuted(), 0u);
}

TEST(Simulator, ExecutesEventsInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(30, [&] { order.push_back(3); });
    sim.schedule(10, [&] { order.push_back(1); });
    sim.schedule(20, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameTickFifoOrder)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        sim.schedule(5, [&order, i] { order.push_back(i); });
    sim.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedSchedulingAdvancesTime)
{
    Simulator sim;
    Tick seen = -1;
    sim.schedule(10, [&] {
        sim.after(15, [&] { seen = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(seen, 25);
}

TEST(Simulator, RunUntilStopsAtLimit)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(10, [&] { ++fired; });
    sim.schedule(100, [&] { ++fired; });
    EXPECT_FALSE(sim.runUntil(50));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 50);
    EXPECT_TRUE(sim.runUntil(200));
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, SameTickEventsFromPastBeatLaterRingEvents)
{
    // Exact (when, seq) order: an event scheduled *earlier* for tick 5
    // must run before a same-tick event scheduled *during* tick 5, which
    // joins the back of tick 5's wheel bucket.
    Simulator sim;
    std::vector<int> order;
    sim.schedule(5, [&] {
        order.push_back(0);
        sim.after(0, [&] { order.push_back(2); }); // same-tick, seq 2
    });
    sim.schedule(5, [&] { order.push_back(1); }); // later-tick, seq 1
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, CountersTrackRingAndHeapTraffic)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(0, [&] { ++fired; });  // now == 0: same-tick
    sim.schedule(10, [&] { ++fired; }); // future: later-tick
    sim.schedule(10, [&] {              // future: later-tick
        sim.after(0, [&] { ++fired; }); // same-tick wakeup: ring
    });
    sim.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(sim.eventsExecuted(), 4u);
    EXPECT_EQ(sim.readyRingHits(), 2u);
    EXPECT_EQ(sim.heapPushes(), 2u);
    EXPECT_EQ(sim.peakHeapSize(), 2u);
    EXPECT_GE(sim.peakRingSize(), 1u);

    stats::EventCoreCounters c = sim.counters();
    EXPECT_EQ(c.eventsExecuted, 4u);
    EXPECT_EQ(c.readyRingHits, 2u);
    EXPECT_EQ(c.heapPushes, 2u);
    EXPECT_DOUBLE_EQ(c.ringHitRate(), 0.5);
    EXPECT_EQ(c, sim.counters());
}

TEST(Simulator, OversizedClosuresStillWork)
{
    // Closures beyond EventFn's inline buffer take the heap fallback.
    Simulator sim;
    std::array<std::uint64_t, 64> big{};
    big[0] = 7;
    big[63] = 35;
    std::uint64_t got = 0;
    static_assert(sizeof(big) > EventFn::inlineBytes);
    sim.schedule(3, [&got, big] { got = big[0] + big[63]; });
    sim.run();
    EXPECT_EQ(got, 42u);
}

namespace {

/** Registers every copy of itself alive, and fails on a second
 *  destruction of one. */
struct Tracked
{
    std::vector<const Tracked *> *live;

    explicit Tracked(std::vector<const Tracked *> *l) : live(l)
    {
        live->push_back(this);
    }
    Tracked(const Tracked &o) : Tracked(o.live) {}
    Tracked &operator=(const Tracked &) = delete;

    ~Tracked()
    {
        auto it = std::find(live->begin(), live->end(), this);
        EXPECT_NE(it, live->end()) << "destroyed twice";
        if (it != live->end())
            live->erase(it);
    }
};

} // namespace

TEST(Simulator, PendingEventsAreDestroyedAtTeardown)
{
    // Undispatched closures (wheel and far heap) must release their
    // captures when the simulator dies mid-run.
    auto owner = std::make_shared<int>(1);
    EXPECT_EQ(owner.use_count(), 1);
    {
        Simulator sim;
        sim.schedule(0, [keep = owner] {});
        sim.schedule(50, [keep = owner] {});
        EXPECT_EQ(owner.use_count(), 3);
        EXPECT_EQ(sim.pendingEvents(), 2u);
    }
    EXPECT_EQ(owner.use_count(), 1);

    // Closures a node cannot hold (these are not trivially copyable)
    // live in the closure slab, or on the heap when too big for a cell.
    // Each is destroyed once: after it runs, or at teardown if it is
    // still pending.
    constexpr Tick span = Simulator::wheelSpan;
    std::vector<const Tracked *> live;
    int ran = 0;
    {
        Simulator sim;
        for (Tick when : {Tick{0}, Tick{50}, 2 * span, 3 * span}) {
            sim.schedule(when, [t = Tracked{&live}, &ran] { ++ran; });
            sim.schedule(when, [t = Tracked{&live}, &ran,
                                big = std::array<std::uint64_t, 16>{}] {
                ran += 1 + static_cast<int>(big[0]);
            });
        }
        EXPECT_EQ(live.size(), 8u);
        sim.runUntil(2 * span); // runs six, two stay pending in the heap
        EXPECT_EQ(ran, 6);
        EXPECT_EQ(live.size(), 2u);
        EXPECT_EQ(sim.pendingEvents(), 2u);
    }
    EXPECT_TRUE(live.empty());
    EXPECT_EQ(ran, 6);
}

TEST(Simulator, RecycledHeapSlotsKeepSeqOrderWithinATick)
{
    // Popped events free their slab slots for later pushes, so a newer
    // event can sit in a lower slot than an older one due at the same
    // tick. Order must still be (when, seq), i.e. scheduling order.
    Simulator sim;
    std::vector<int> order;
    auto log = [&order](int id) {
        return [&order, id] { order.push_back(id); };
    };
    sim.schedule(10, log(0)); // slot 0
    sim.schedule(20, log(1)); // slot 1
    sim.schedule(30, log(2)); // slot 2
    sim.runUntil(15);         // frees slot 0
    sim.schedule(20, log(3)); // recycles slot 0, after 1 in seq
    sim.schedule(20, log(4));
    sim.schedule(30, log(5));
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4, 2, 5}));

    // Randomised: interleave pushes onto a few shared ticks with pops,
    // and compare with a stable sort of the schedule by tick.
    Simulator sim2;
    std::vector<std::pair<Tick, int>> scheduled;
    std::vector<int> got;
    std::uint32_t rng = 7;
    int next = 0;
    for (int round = 0; round < 50; ++round) {
        for (int k = 0; k < 6; ++k) {
            rng = rng * 1664525u + 1013904223u;
            Tick when = sim2.now() + 1 + static_cast<Tick>((rng >> 8) % 4);
            int id = next++;
            scheduled.emplace_back(when, id);
            sim2.schedule(when, [&got, id] { got.push_back(id); });
        }
        sim2.runUntil(sim2.now() + 2);
    }
    sim2.run();
    std::stable_sort(scheduled.begin(), scheduled.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<int> want;
    for (const auto &s : scheduled)
        want.push_back(s.second);
    EXPECT_EQ(got, want);
}

TEST(Simulator, DeterministicStormIsBitIdentical)
{
    // Guard against wheel/far-heap ordering drift: a pseudorandom
    // event storm (self-rescheduling chains mixing 0-delay wakeups and
    // timed events) must replay bit-identically.
    auto storm = [](std::uint64_t seed, std::vector<Tick> *trace,
                    std::uint64_t *executed) {
        Simulator sim;
        std::uint64_t budget = 5000;
        struct Chain
        {
            Simulator *sim;
            std::uint64_t *budget;
            std::vector<Tick> *trace;
            std::uint32_t rng;
            int id;

            void
            operator()()
            {
                trace->push_back(sim->now() * 64 + id);
                if (*budget == 0)
                    return;
                --*budget;
                rng = rng * 1664525u + 1013904223u;
                Tick d = (rng >> 8) % 4 == 0 ? (rng >> 8) % 97 : 0;
                sim->after(d, *this);
            }
        };
        for (int i = 0; i < 8; ++i)
            sim.after(static_cast<Tick>(i % 3),
                      Chain{&sim, &budget, trace,
                            static_cast<std::uint32_t>(seed + i), i});
        sim.run();
        *executed = sim.eventsExecuted();
    };

    std::vector<Tick> t1, t2;
    std::uint64_t e1 = 0, e2 = 0;
    storm(12345, &t1, &e1);
    storm(12345, &t2, &e2);
    EXPECT_EQ(e1, e2);
    EXPECT_EQ(t1, t2);

    std::vector<Tick> t3;
    std::uint64_t e3 = 0;
    storm(999, &t3, &e3);
    EXPECT_NE(t1, t3); // the seed actually matters
}

TEST(Simulator, RunUntilNeverMovesTimeBackwards)
{
    Simulator sim;
    std::vector<Tick> fired;
    auto log = [&] { fired.push_back(sim.now()); };
    sim.schedule(100, log);
    sim.schedule(500, log);
    EXPECT_FALSE(sim.runUntil(200));
    EXPECT_EQ(sim.now(), 200);
    EXPECT_FALSE(sim.runUntil(50));
    EXPECT_EQ(sim.now(), 200);
    sim.schedule(sim.now() + 10, log);
    sim.run();
    EXPECT_EQ(fired, (std::vector<Tick>{100, 210, 500}));
}

TEST(Simulator, FarEventBeatsLaterWheelEventOfTheSameTick)
{
    // At tick 0 the event for `span + 5` is too far for the wheel; at
    // tick 10 a second one for the same tick lands in the wheel. The far
    // one was scheduled first, so it runs first.
    constexpr Tick span = Simulator::wheelSpan;
    Simulator sim;
    std::vector<int> order;
    sim.schedule(span + 5, [&] { order.push_back(0); });
    sim.schedule(10, [&] {
        sim.after(span - 5, [&] { order.push_back(1); });
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(sim.now(), span + 5);
}

TEST(Simulator, EventExactlyOneSpanAheadRunsAfterTheCurrentTick)
{
    // `span` ahead maps to the current tick's bucket, so it must not
    // join it: it runs after the current tick and after `span - 1`.
    constexpr Tick span = Simulator::wheelSpan;
    Simulator sim;
    std::vector<std::pair<int, Tick>> fired;
    auto log = [&](int id) {
        return [&fired, &sim, id] { fired.emplace_back(id, sim.now()); };
    };
    sim.schedule(span, log(0));
    sim.schedule(0, log(1));
    sim.schedule(span - 1, log(2));
    sim.schedule(0, [&] { sim.after(span, log(3)); });
    sim.run();
    EXPECT_EQ(fired, (std::vector<std::pair<int, Tick>>{
                         {1, 0}, {2, span - 1}, {0, span}, {3, span}}));
}

TEST(Simulator, CountersAreExactWithFarEvents)
{
    constexpr Tick span = Simulator::wheelSpan;
    Simulator sim;
    int fired = 0;
    auto count = [&] { ++fired; };
    sim.schedule(0, count);                // same tick
    sim.schedule(span, count);             // far
    sim.schedule(3 * span, count);         // far
    sim.schedule(10, [&] {                 // near
        sim.after(0, count);               // same tick
        sim.after(1, count);               // near
        sim.after(span + 1, count);        // far
    });
    EXPECT_EQ(sim.pendingEvents(), 4u);
    sim.run();
    EXPECT_EQ(fired, 6);
    EXPECT_EQ(sim.eventsExecuted(), 7u);
    EXPECT_EQ(sim.readyRingHits(), 2u);
    EXPECT_EQ(sim.heapPushes(), 5u);
    // At tick 10: span, 3 * span, 11 and 10 + span + 1 are pending.
    EXPECT_EQ(sim.peakHeapSize(), 4u);
    EXPECT_EQ(sim.peakRingSize(), 1u);
    EXPECT_EQ(sim.now(), 3 * span);
}

namespace {

/**
 * Random schedule for the differential wheel test: each event may
 * schedule more events with 0, near, boundary or far delays, or on the
 * tick of a pending far event, and in every payload kind of an event
 * node (a coroutine resume, an inline callable, a slab closure, a heap
 * closure). The model keeps every (when, id) pair and the expected
 * counters.
 */
struct RandomSchedule
{
    enum Payload { Inline, Cell, Heap, Resume, numPayloads };
    enum Reach { SameTick, Near, Far, numReaches };

    /** A parked coroutine that fires the event id it is resumed for. */
    struct Sleeper
    {
        std::coroutine_handle<> handle;
        int id = -1;
    };

    struct Park
    {
        RandomSchedule *s;
        Sleeper *p;
        bool await_ready() const noexcept { return false; }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            p->handle = h;
            s->idle.push_back(p);
        }
        void await_resume() const noexcept {}
    };

    static Process
    sleep(RandomSchedule *s, Sleeper *p)
    {
        for (;;) {
            co_await Park{s, p};
            s->fire(p->id);
        }
    }

    Simulator sim;
    std::array<Sleeper, 32> sleepers;
    std::vector<Sleeper *> idle;
    std::vector<Tick> when; ///< by event id = scheduling order
    std::vector<bool> sameTickId; ///< by event id
    std::vector<int> ran;
    /** Ticks of the latest far events, for events that land on them. */
    std::array<Tick, 8> farTicks{};
    std::size_t farNext = 0;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    int budget = 20000;
    stats::EventCoreCounters want;
    std::size_t pendingNow = 0, pendingLater = 0;
    /** Events scheduled by payload kind and reach. */
    std::array<std::array<int, numReaches>, numPayloads> mix{};
    int onFarTicks = 0;

    /** An inline node payload. */
    struct Fire
    {
        RandomSchedule *s;
        int id;
        void operator()() const { s->fire(id); }
    };
    static_assert(sizeof(Fire) <= Simulator::nodeInlineBytes);

    /** A slab closure of a message delivery's size. */
    struct FireWide
    {
        RandomSchedule *s;
        int id;
        std::array<std::uint64_t, 8> pad;
        void operator()() const { s->fire(id + static_cast<int>(pad[7])); }
    };
    static_assert(sizeof(FireWide) >= 64 &&
                  sizeof(FireWide) <= EventFn::inlineBytes);

    /** Beyond a slab cell: the heap fallback. */
    struct FireHeap
    {
        RandomSchedule *s;
        int id;
        std::array<std::uint64_t, 16> pad;
        void operator()() const { s->fire(id + static_cast<int>(pad[15])); }
    };
    static_assert(sizeof(FireHeap) > EventFn::inlineBytes);

    /** Park the sleepers; their spawns count as same-tick events. */
    void
    start()
    {
        for (Sleeper &p : sleepers) {
            sim.spawn(sleep(this, &p));
            ++want.readyRingHits;
            want.peakRingSize = std::max<std::uint64_t>(want.peakRingSize,
                                                        ++pendingNow);
        }
        sim.run();
        want.eventsExecuted += sleepers.size();
        pendingNow = 0;
    }

    std::uint64_t
    next(std::uint64_t n)
    {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng % n;
    }

    Tick
    delay()
    {
        constexpr auto span = static_cast<std::uint64_t>(Simulator::wheelSpan);
        switch (next(7)) {
        case 0: return 0;
        case 1: return static_cast<Tick>(next(64));
        case 2: return static_cast<Tick>(next(span));
        case 3: return static_cast<Tick>(span - 1 + next(3));
        case 4:
            // The tick of a far event the wheel now reaches.
            for (Tick t : farTicks)
                if (t > sim.now() && t - sim.now() < Simulator::wheelSpan) {
                    ++onFarTicks;
                    return t - sim.now();
                }
            return static_cast<Tick>(next(64));
        default: return static_cast<Tick>(next(3 * span));
        }
    }

    void
    add(Tick d)
    {
        int id = static_cast<int>(when.size());
        when.push_back(sim.now() + d);
        sameTickId.push_back(d == 0);
        if (d == 0) {
            ++want.readyRingHits;
            want.peakRingSize = std::max<std::uint64_t>(want.peakRingSize,
                                                        ++pendingNow);
        } else {
            ++want.heapPushes;
            want.peakHeapSize = std::max<std::uint64_t>(want.peakHeapSize,
                                                        ++pendingLater);
        }
        if (d >= Simulator::wheelSpan)
            farTicks[farNext++ % farTicks.size()] = sim.now() + d;
        auto payload = static_cast<Payload>(next(numPayloads));
        if (payload == Resume && idle.empty())
            payload = Inline;
        Reach reach = d == 0                        ? SameTick
                      : d < Simulator::wheelSpan ? Near
                                                   : Far;
        ++mix[payload][reach];
        switch (payload) {
        case Inline: sim.after(d, Fire{this, id}); break;
        case Cell: sim.after(d, FireWide{this, id, {}}); break;
        case Heap: sim.after(d, FireHeap{this, id, {}}); break;
        default: {
            Sleeper *p = idle.back();
            idle.pop_back();
            p->id = id;
            if (d == 0)
                sim.resumeSoon(p->handle);
            else
                sim.resumeAfter(d, p->handle);
        }
        }
    }

    void
    fire(int id)
    {
        EXPECT_EQ(sim.now(), when[static_cast<std::size_t>(id)]);
        ran.push_back(id);
        ++want.eventsExecuted;
        if (sameTickId[static_cast<std::size_t>(id)])
            --pendingNow;
        else
            --pendingLater;
        addSome(next(3));
    }

    /** Schedule up to @p n more events while the budget lasts. */
    void
    addSome(std::uint64_t n)
    {
        for (; n > 0 && budget > 0; --n, --budget)
            add(delay());
    }
};

} // namespace

TEST(Simulator, WheelMatchesStableSortOfTheSchedule)
{
    // Differential check of the wheel and far heap against the order
    // contract: run a random self-extending schedule over many wraps of
    // the bucket index, with runUntil gaps and outside scheduling in
    // between, and compare with a stable sort by tick of every event.
    RandomSchedule r;
    r.start();
    r.addSome(64);
    while (r.sim.pendingEvents() > 0) {
        auto gap = static_cast<Tick>(r.next(2 * Simulator::wheelSpan));
        r.sim.runUntil(r.sim.now() + gap);
        r.addSome(r.next(4));
    }
    EXPECT_GT(r.sim.now(), 10 * Simulator::wheelSpan); // wrapped often

    std::vector<int> want(r.when.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        want[i] = static_cast<int>(i);
    std::stable_sort(want.begin(), want.end(), [&](int a, int b) {
        return r.when[static_cast<std::size_t>(a)] <
               r.when[static_cast<std::size_t>(b)];
    });
    EXPECT_EQ(r.ran, want);
    EXPECT_EQ(r.sim.counters(), r.want);
    EXPECT_EQ(r.sim.pendingEvents(), 0u);

    // Every payload kind was scheduled at every reach.
    for (int p = 0; p < RandomSchedule::numPayloads; ++p)
        for (int q = 0; q < RandomSchedule::numReaches; ++q)
            EXPECT_GT(r.mix[p][q], 0) << "payload " << p << " reach " << q;
    EXPECT_GT(r.onFarTicks, 0);
}

namespace {

Process
delayProcess(Simulator &, Tick d, Tick *finished_at, Simulator *simp)
{
    co_await delay(d);
    *finished_at = simp->now();
}

} // namespace

TEST(Process, DelayAdvancesSimTime)
{
    Simulator sim;
    Tick finished = -1;
    sim.spawn(delayProcess(sim, 123, &finished, &sim));
    sim.run();
    EXPECT_EQ(finished, 123);
    EXPECT_EQ(sim.numLiveProcesses(), 0u);
}

namespace {

Process
chainedDelays(Simulator *simp, std::vector<Tick> *trace)
{
    for (int i = 0; i < 3; ++i) {
        co_await delay(10);
        trace->push_back(simp->now());
    }
}

} // namespace

TEST(Process, SequentialDelaysAccumulate)
{
    Simulator sim;
    std::vector<Tick> trace;
    sim.spawn(chainedDelays(&sim, &trace));
    sim.run();
    EXPECT_EQ(trace, (std::vector<Tick>{10, 20, 30}));
}

namespace {

Task<int>
subTask(Tick d)
{
    co_await delay(d);
    co_return 7;
}

Task<void>
voidSub(Tick d, int *out)
{
    co_await delay(d);
    *out += 1;
}

Process
taskCaller(Simulator *simp, int *result, Tick *t)
{
    int v = co_await subTask(40);
    *result = v;
    *t = simp->now();
    co_await voidSub(2, result);
}

} // namespace

TEST(Task, AwaitableSubroutinesReturnValues)
{
    Simulator sim;
    int result = 0;
    Tick t = -1;
    sim.spawn(taskCaller(&sim, &result, &t));
    sim.run();
    EXPECT_EQ(result, 8); // 7 from subTask, +1 from voidSub
    EXPECT_EQ(t, 40);
}

namespace {

/** Answers its caller after 10 ticks, then goes on for @p rest ticks
 *  (or, with a null @p rest_at, waits forever) detached. */
Task<int>
answerEarly(Simulator *simp, std::vector<std::string> *log, Tick *rest_at,
            Condition *never)
{
    co_await delay(10);
    log->push_back("answer");
    co_await detach(42);
    log->push_back("rest " + std::to_string(simp->now()));
    if (!rest_at)
        co_await never->wait();
    co_await delay(5);
    *rest_at = simp->now();
    co_return -1;
}

Process
answerCaller(Simulator *simp, std::vector<std::string> *log, Tick *rest_at,
             Condition *never)
{
    const int v = co_await answerEarly(simp, log, rest_at, never);
    log->push_back("caller " + std::to_string(v) + " " +
                   std::to_string(simp->now()));
}

} // namespace

TEST(Task, DetachAnswersTheCallerAndRunsTheRestLikeASpawn)
{
    Simulator sim;
    std::vector<std::string> log;
    Tick rest_at = -1;
    sim.spawn(answerCaller(&sim, &log, &rest_at, nullptr));
    sim.run();
    // The caller resumes inline with the value; the rest starts in a
    // later same-tick event, as a Process spawned there would.
    EXPECT_EQ(log, (std::vector<std::string>{"answer", "caller 42 10",
                                             "rest 10"}));
    EXPECT_EQ(rest_at, 15);
    EXPECT_EQ(sim.numLiveProcesses(), 0u);
}

TEST(Task, TeardownReclaimsABlockedDetachedTask)
{
    // The detached rest waits forever; destroying the simulator frees
    // its frame (ASan would catch the leak).
    auto sim = std::make_unique<Simulator>();
    Condition never(*sim);
    std::vector<std::string> log;
    sim->spawn(answerCaller(sim.get(), &log, nullptr, &never));
    sim->run();
    EXPECT_EQ(log.back(), "rest 10");
    EXPECT_EQ(sim->numLiveProcesses(), 1u);
    sim.reset();
}

namespace {

Process
waiter(Condition *cond, bool *flag, Tick *woke_at, Simulator *simp)
{
    while (!*flag)
        co_await cond->wait();
    *woke_at = simp->now();
}

Process
notifier(Condition *cond, bool *flag)
{
    co_await delay(50);
    *flag = true;
    cond->notifyAll();
}

} // namespace

TEST(Condition, PredicateLoopWakesOnNotify)
{
    Simulator sim;
    Condition cond(sim);
    bool flag = false;
    Tick woke = -1;
    sim.spawn(waiter(&cond, &flag, &woke, &sim));
    sim.spawn(notifier(&cond, &flag));
    sim.run();
    EXPECT_EQ(woke, 50);
}

TEST(Condition, NotifyWithNoWaitersIsNoop)
{
    Simulator sim;
    Condition cond(sim);
    cond.notifyAll();
    cond.notifyOne();
    sim.run();
    EXPECT_EQ(cond.numWaiters(), 0u);
}

namespace {

Process
orderedWaiter(Condition *cond, int id, std::vector<int> *woke)
{
    co_await cond->wait();
    woke->push_back(id);
}

} // namespace

TEST(Condition, NotifyOneWakesOldestWaiterOnly)
{
    Simulator sim;
    Condition cond(sim);
    std::vector<int> woke;
    for (int i = 0; i < 3; ++i)
        sim.spawn(orderedWaiter(&cond, i, &woke));
    sim.runUntil(0);
    ASSERT_EQ(cond.numWaiters(), 3u);

    cond.notifyOne();
    sim.runUntil(1);
    EXPECT_EQ(woke, (std::vector<int>{0})); // FIFO: oldest first
    EXPECT_EQ(cond.numWaiters(), 2u);

    cond.notifyOne();
    cond.notifyOne();
    sim.run();
    EXPECT_EQ(woke, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(cond.numWaiters(), 0u);
}

namespace {

Process
untilTrueProcess(Condition *cond, Simulator *simp, bool *passed)
{
    std::uint64_t before = simp->eventsExecuted();
    std::size_t pending = simp->pendingEvents();
    co_await cond->until([] { return true; });
    // Nothing ran and nothing was queued: the process never suspended.
    *passed = simp->eventsExecuted() == before &&
              simp->pendingEvents() == pending && cond->numWaiters() == 0;
}

Process
untilGate(Condition *cond, const bool *gate, int *tests, int id,
          std::vector<int> *woke)
{
    co_await cond->until([gate, tests] {
        ++*tests;
        return *gate;
    });
    woke->push_back(id);
}

Process
waitThenOpen(Condition *cond, bool *gate, int id, std::vector<int> *woke)
{
    co_await cond->wait();
    woke->push_back(id);
    *gate = true;
    cond->notifyAll(); // from inside the batch that resumed us
}

} // namespace

TEST(Condition, UntilWithTruePredicateDoesNotSuspend)
{
    Simulator sim;
    Condition cond(sim);
    bool passed = false;
    sim.spawn(untilTrueProcess(&cond, &sim, &passed));
    sim.run();
    EXPECT_TRUE(passed);
    EXPECT_EQ(sim.eventsExecuted(), 1u); // the spawn itself
}

TEST(Condition, FalsePredicateWaiterIsNeverResumed)
{
    Simulator sim;
    Condition cond(sim);
    bool gate = false;
    int tests = 0;
    std::vector<int> woke;
    sim.spawn(untilGate(&cond, &gate, &tests, 0, &woke));
    sim.run();
    ASSERT_EQ(tests, 1); // the initial test, then parked
    ASSERT_EQ(cond.numWaiters(), 1u);

    for (int i = 0; i < 3; ++i) {
        std::uint64_t before = sim.eventsExecuted();
        cond.notifyAll();
        sim.run();
        // One batch event, one predicate test, no resume.
        EXPECT_EQ(sim.eventsExecuted(), before + 1);
        EXPECT_EQ(tests, 2 + i);
        EXPECT_TRUE(woke.empty());
        EXPECT_EQ(cond.numWaiters(), 1u);
    }

    gate = true;
    cond.notifyAll();
    sim.run();
    EXPECT_EQ(woke, (std::vector<int>{0}));
    EXPECT_EQ(cond.numWaiters(), 0u);
    EXPECT_EQ(sim.numLiveProcesses(), 0u);
}

TEST(Condition, MixedBatchKeepsPerWaiterFifoOrder)
{
    // A `while (!p) co_await wait();` loop per waiter, with one same-tick
    // event per wakeup, gives: 0 resumes; 1 re-tests false and re-waits; 2 resumes,
    // opens the gate and notifies; 3 re-tests true and resumes; the event
    // queued just after the notification (99) runs; then the second
    // notification resumes 1. The batched wakeup must match exactly.
    Simulator sim;
    Condition cond(sim);
    bool gate = false;
    int tests = 0;
    std::vector<int> woke;
    sim.spawn(orderedWaiter(&cond, 0, &woke));
    sim.spawn(untilGate(&cond, &gate, &tests, 1, &woke));
    sim.spawn(waitThenOpen(&cond, &gate, 2, &woke));
    sim.spawn(untilGate(&cond, &gate, &tests, 3, &woke));
    sim.schedule(10, [&] {
        cond.notifyAll();
        sim.after(0, [&] { woke.push_back(99); });
    });
    sim.run();
    EXPECT_EQ(woke, (std::vector<int>{0, 2, 3, 99, 1}));
    EXPECT_EQ(cond.numWaiters(), 0u);
    EXPECT_EQ(sim.numLiveProcesses(), 0u);
}

TEST(Condition, NotifyOneSkipsFalsePredicateWaiter)
{
    // notifyOne() hands the wakeup to the oldest waiter; if its predicate
    // is false it re-parks at the back (as the wait() loop would) and
    // nobody else is woken by that notification.
    Simulator sim;
    Condition cond(sim);
    bool gate = false;
    int tests = 0;
    std::vector<int> woke;
    sim.spawn(untilGate(&cond, &gate, &tests, 0, &woke));
    sim.spawn(orderedWaiter(&cond, 1, &woke));
    sim.run();
    ASSERT_EQ(cond.numWaiters(), 2u);

    cond.notifyOne();
    sim.run();
    EXPECT_TRUE(woke.empty());
    EXPECT_EQ(cond.numWaiters(), 2u);

    cond.notifyOne(); // 1 is now the oldest
    sim.run();
    EXPECT_EQ(woke, (std::vector<int>{1}));

    gate = true;
    cond.notifyOne();
    sim.run();
    EXPECT_EQ(woke, (std::vector<int>{1, 0}));
    EXPECT_EQ(cond.numWaiters(), 0u);
}

namespace {

Process
producer(Mailbox<int> *mb)
{
    for (int i = 0; i < 5; ++i) {
        co_await delay(10);
        mb->send(i);
    }
}

Process
consumer(Mailbox<int> *mb, std::vector<int> *got)
{
    for (int i = 0; i < 5; ++i) {
        int v = co_await mb->recv();
        got->push_back(v);
    }
}

} // namespace

TEST(Mailbox, FifoDelivery)
{
    Simulator sim;
    Mailbox<int> mb(sim);
    std::vector<int> got;
    sim.spawn(consumer(&mb, &got));
    sim.spawn(producer(&mb));
    sim.run();
    EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Mailbox, SendBeforeRecvIsQueued)
{
    Simulator sim;
    Mailbox<int> mb(sim);
    mb.send(41);
    mb.send(42);
    EXPECT_EQ(mb.size(), 2u);
    std::vector<int> got;
    sim.spawn(consumer(&mb, &got)); // wants 5 items
    sim.spawn(producer(&mb));       // sends 5 more; consumer takes 5 total
    sim.run();
    ASSERT_GE(got.size(), 2u);
    EXPECT_EQ(got[0], 41);
    EXPECT_EQ(got[1], 42);
}

namespace {

Process
twoConsumers(Mailbox<int> *mb, std::vector<int> *got)
{
    int v = co_await mb->recv();
    got->push_back(v);
}

} // namespace

TEST(Mailbox, EachItemWakesExactlyOneReceiver)
{
    Simulator sim;
    Mailbox<int> mb(sim);
    std::vector<int> got;
    sim.spawn(twoConsumers(&mb, &got));
    sim.spawn(twoConsumers(&mb, &got));
    sim.schedule(5, [&] { mb.send(1); });
    sim.schedule(6, [&] { mb.send(2); });
    sim.run();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(Simulator, TeardownReclaimsBlockedProcesses)
{
    // A process that waits forever must not leak when the simulator is
    // destroyed (ASan would catch the leak).
    auto sim = std::make_unique<Simulator>();
    Condition cond(*sim);
    bool flag = false;
    Tick woke = -1;
    sim->spawn(waiter(&cond, &flag, &woke, sim.get()));
    sim->run();
    EXPECT_EQ(sim->numLiveProcesses(), 1u);
    sim.reset(); // must destroy the suspended frame
    EXPECT_EQ(woke, -1);
}

// ---------------------------------------------------------------------
// Frame pool and live-process list
// ---------------------------------------------------------------------

namespace {

/** Reports the address of a local kept in its frame, then pauses. */
Process
frameProbe(void **where, Tick pause)
{
    int local = 0;
    *where = &local;
    co_await delay(pause);
    ++local;
}

/** A frame larger than the largest pooled size class. */
Process
bigFrame(std::uint64_t *sum)
{
    std::array<std::uint64_t, FramePool::maxPooled / 8 + 64> buf{};
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = i;
    co_await delay(1);
    for (std::uint64_t v : buf)
        *sum += v;
}

} // namespace

TEST(FramePool, FreedBlockIsReusedLifo)
{
    if (!FramePool::enabled)
        GTEST_SKIP() << "frame pool is off under AddressSanitizer";
    void *a = FramePool::allocate(200);
    void *b = FramePool::allocate(200);
    FramePool::deallocate(a, 200);
    FramePool::deallocate(b, 200);
    // Same 64-byte class (193..256 bytes): last freed, first reused.
    void *c = FramePool::allocate(250);
    void *d = FramePool::allocate(200);
    EXPECT_EQ(c, b);
    EXPECT_EQ(d, a);
    FramePool::deallocate(c, 250);
    FramePool::deallocate(d, 200);
}

TEST(FramePool, FinishedProcessFrameIsReused)
{
    if (!FramePool::enabled)
        GTEST_SKIP() << "frame pool is off under AddressSanitizer";
    Simulator sim;
    void *first = nullptr;
    void *second = nullptr;
    sim.spawn(frameProbe(&first, 5));
    sim.run();
    sim.spawn(frameProbe(&second, 5));
    sim.run();
    EXPECT_NE(first, nullptr);
    EXPECT_EQ(first, second);
}

TEST(FramePool, UnspawnedProcessReturnsItsFrame)
{
    if (!FramePool::enabled)
        GTEST_SKIP() << "frame pool is off under AddressSanitizer";
    Simulator sim;
    void *first = nullptr;
    void *unused = nullptr;
    void *third = nullptr;
    sim.spawn(frameProbe(&first, 1));
    sim.run();
    {
        // Takes the frame just freed; its destructor must return it.
        Process never = frameProbe(&unused, 1);
        EXPECT_EQ(sim.numLiveProcesses(), 0u);
    }
    EXPECT_EQ(unused, nullptr);
    sim.spawn(frameProbe(&third, 1));
    sim.run();
    EXPECT_EQ(third, first);
}

TEST(FramePool, OversizedFrameBypassesThePool)
{
    void *p = FramePool::allocate(FramePool::maxPooled + 1);
    std::memset(p, 0xab, FramePool::maxPooled + 1);
    FramePool::deallocate(p, FramePool::maxPooled + 1);

    Simulator sim;
    std::uint64_t sum = 0;
    sim.spawn(bigFrame(&sum));
    EXPECT_EQ(sim.numLiveProcesses(), 1u);
    sim.run();
    const std::uint64_t n = FramePool::maxPooled / 8 + 64;
    EXPECT_EQ(sum, n * (n - 1) / 2);
    EXPECT_EQ(sim.numLiveProcesses(), 0u);
}

TEST(Simulator, LiveProcessCountTracksSpawnFinishAndTeardown)
{
    auto sim = std::make_unique<Simulator>();
    Condition cond(*sim);
    bool flag = false;
    Tick woke = -1;
    void *where = nullptr;
    EXPECT_EQ(sim->numLiveProcesses(), 0u);
    sim->spawn(frameProbe(&where, 20));
    sim->spawn(frameProbe(&where, 10)); // middle of the list, ends first
    sim->spawn(waiter(&cond, &flag, &woke, sim.get()));
    sim->spawn(waiter(&cond, &flag, &woke, sim.get()));
    EXPECT_EQ(sim->numLiveProcesses(), 4u);
    sim->runUntil(15);
    EXPECT_EQ(sim->numLiveProcesses(), 3u);
    sim->run();
    EXPECT_EQ(sim->numLiveProcesses(), 2u); // both waiters blocked
    sim.reset(); // reclaims both suspended frames
    EXPECT_EQ(woke, -1);
}

// ---------------------------------------------------------------------
// Allocation gates. alloc_hook.cc counts every operator new in this
// binary; these cases pin the two allocation properties the event core
// and the frame pool exist for.
// ---------------------------------------------------------------------

namespace {

/** Mirrors the size of a message-delivery capture (ptr + Message). */
struct Payload
{
    std::uint64_t words[8] = {1, 2, 3, 4, 5, 6, 7, 8};
};

enum class Shape
{
    TimerHeavy,  ///< pseudorandom future delays: many pending timers
    WakeupHeavy, ///< `after(0, ...)` chains: same-tick wheel events
    Mixed,       ///< a 50/50 blend of the two
};

/**
 * A self-rescheduling event chain. Each firing consumes its payload
 * (checksummed into *sink so nothing is optimized away) and, while the
 * shared budget lasts, schedules its successor per the workload shape.
 */
struct Chain
{
    Simulator *sim;
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
            return (next() & 1) ? 0 : 1 + static_cast<Tick>(next() % 1000);
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
        sim->after(d, std::move(c));
    }
};

/**
 * Start @p chains chains sharing a budget of @p events successors, run
 * them to completion, and return the allocations made while sim.run()
 * dispatched.
 */
std::uint64_t
dispatchAllocs(Simulator &sim, Shape shape, std::uint64_t events,
               int chains, std::uint64_t *sink)
{
    std::uint64_t budget = events;
    for (int i = 0; i < chains; ++i) {
        Chain c{&sim, &budget, sink,
                0x9e3779b9u + static_cast<std::uint32_t>(i), shape,
                Payload{}};
        Tick d = c.nextDelay();
        sim.after(d, std::move(c));
    }
    std::uint64_t before = test::allocCount();
    sim.run();
    return test::allocCount() - before;
}

/** Awaiter that requeues the caller behind this tick's events. */
struct YieldNow
{
    bool await_ready() const noexcept { return false; }

    template <typename P>
    void
    await_suspend(std::coroutine_handle<P> h)
    {
        h.promise().sim->resumeSoon(h);
    }

    void await_resume() const noexcept {}
};

/** Resume-heavy shape: every event resumes a coroutine, half of them
 *  same-tick (resumeSoon) and half timed (resumeAfter). */
Process
resumeLoop(std::uint64_t *budget, std::uint32_t rng)
{
    while (*budget > 0) {
        --*budget;
        rng = rng * 1664525u + 1013904223u;
        if ((rng >> 8) & 1)
            co_await delay(1 + static_cast<Tick>((rng >> 9) % 1000));
        else
            co_await YieldNow{};
    }
}

/** Condition-batch shape: waiters of one Condition, each for the next
 *  generation of its parity, so every batch resumes some and re-parks
 *  the rest. */
Process
batchWaiter(Condition *cond, const std::uint64_t *gen,
            std::uint64_t *budget, std::uint64_t parity)
{
    while (*budget > 0) {
        const std::uint64_t seen = *gen;
        co_await cond->until([gen, budget, seen, parity] {
            return *gen > seen && (*gen % 2 == parity || *budget == 0);
        });
        if (*budget > 0)
            --*budget;
    }
}

Process
batchNotifier(Condition *cond, std::uint64_t *gen,
              const std::uint64_t *budget)
{
    while (*budget > 0) {
        co_await delay(1);
        ++*gen;
        cond->notifyAll();
    }
    ++*gen; // release the waiters still parked
    cond->notifyAll();
}

/** Run the processes @p spawn starts and return the allocations made
 *  while sim.run() dispatched. */
template <typename Spawn>
std::uint64_t
processAllocs(Simulator &sim, Spawn &&spawn)
{
    spawn();
    std::uint64_t before = test::allocCount();
    sim.run();
    return test::allocCount() - before;
}

/**
 * Allowed allocations per client op on the protocol runs, about 10%
 * above the larger measured value (B Synch 0.0112, O Strict 0.0146).
 * They were 0.103 and 0.405 while the SmartNIC FIFOs and the node
 * mailboxes were std::deques, which allocate a block each time they
 * advance past one. Not 0: the latency series and the durable overlays
 * grow early in a run.
 */
constexpr double protocolAllocBound = 0.0175;

/** The same on O Scope, whose [PERSIST]sc transactions live in the
 *  pending-txn slab too: about 10% above the measured 0.0217. */
constexpr double scopeAllocBound = 0.024;

/**
 * Allocations per client op of one short YCSB-A run, counted only while
 * sim.run() dispatches (construction and stream generation are outside).
 */
template <typename ClusterT>
double
protocolAllocsPerOp(simproto::PersistModel model,
                    simproto::OffloadOptions opts)
{
    Simulator sim;
    simproto::ClusterConfig cfg;
    cfg.numNodes = 5;
    cfg.numRecords = 10'000;
    ClusterT cluster(sim, cfg, model, opts);
    simproto::DriverConfig dc;
    dc.requestsPerNode = 1000;
    dc.workersPerNode = 5;
    dc.ycsb = workload::ycsbPreset('A');
    dc.ycsb.numRecords = cfg.numRecords;
    dc.ycsb.requestsPerNode = dc.requestsPerNode;
    dc.ycsb.seed = 7;

    // Queued ahead of the workers, so it runs first in sim.run().
    std::uint64_t allocsAtStart = 0;
    sim.after(0, [&allocsAtStart] { allocsAtStart = test::allocCount(); });
    simproto::RunResult res = simproto::runWorkload(sim, cluster, dc);
    std::uint64_t allocs = test::allocCount() - allocsAtStart;
    std::uint64_t ops = res.reads + res.writes + res.persistLat.count();
    EXPECT_GT(ops, 0u);
    return ops ? static_cast<double>(allocs) / ops : 0.0;
}

/** Warm the frame pool with one run, then measure a second. */
template <typename ClusterT>
double
warmProtocolAllocsPerOp(simproto::PersistModel model,
                        simproto::OffloadOptions opts)
{
    protocolAllocsPerOp<ClusterT>(model, opts);
    return protocolAllocsPerOp<ClusterT>(model, opts);
}

} // namespace

TEST(AllocGate, SteadyStateDispatchNeverAllocates)
{
    // Outstanding chains: timer-heavy keeps many later-tick events
    // pending, wakeup-heavy a busy current-tick bucket.
    const struct
    {
        const char *name;
        Shape shape;
        int chains;
    } workloads[] = {{"timer_heavy", Shape::TimerHeavy, 4096},
                     {"wakeup_heavy", Shape::WakeupHeavy, 64},
                     {"mixed", Shape::Mixed, 4096}};
    constexpr std::uint64_t events = 200'000;
    for (const auto &w : workloads) {
        SCOPED_TRACE(w.name);
        Simulator sim;
        std::uint64_t sink = 0;
        // Warm the wheel's node slab, then measure on the same simulator.
        dispatchAllocs(sim, w.shape, events / 10, w.chains, &sink);
        std::uint64_t executedBefore = sim.eventsExecuted();
        EXPECT_EQ(dispatchAllocs(sim, w.shape, events, w.chains, &sink),
                  0u);
        EXPECT_EQ(sim.eventsExecuted() - executedBefore,
                  events + static_cast<std::uint64_t>(w.chains));
    }

    // Coroutine shapes. Spawning allocates frames, so it stays outside
    // the measured dispatch; the second run recycles the first's nodes.
    {
        SCOPED_TRACE("resume_heavy");
        Simulator sim;
        auto spawnAll = [&sim](std::uint64_t *budget) {
            for (std::uint32_t i = 0; i < 64; ++i)
                sim.spawn(resumeLoop(budget, 0x9e3779b9u + i));
        };
        std::uint64_t warm = events / 10;
        processAllocs(sim, [&] { spawnAll(&warm); });
        std::uint64_t budget = events;
        std::uint64_t executedBefore = sim.eventsExecuted();
        EXPECT_EQ(processAllocs(sim, [&] { spawnAll(&budget); }), 0u);
        EXPECT_EQ(sim.eventsExecuted() - executedBefore, events + 64);
        EXPECT_EQ(sim.numLiveProcesses(), 0u);
    }
    {
        SCOPED_TRACE("condition_batch");
        Simulator sim;
        Condition cond(sim);
        std::uint64_t gen = 0;
        auto spawnAll = [&](std::uint64_t *budget) {
            for (std::uint64_t i = 0; i < 64; ++i)
                sim.spawn(batchWaiter(&cond, &gen, budget, i % 2));
            sim.spawn(batchNotifier(&cond, &gen, budget));
        };
        std::uint64_t warm = events / 10;
        processAllocs(sim, [&] { spawnAll(&warm); });
        std::uint64_t budget = events;
        std::uint64_t executedBefore = sim.eventsExecuted();
        std::uint64_t testsBefore = sim.counters().predicateTests;
        EXPECT_EQ(processAllocs(sim, [&] { spawnAll(&budget); }), 0u);
        EXPECT_EQ(sim.numLiveProcesses(), 0u);
        // One batch event per notification; more tests than resumes.
        EXPECT_GT(sim.eventsExecuted() - executedBefore, events / 32);
        EXPECT_GT(sim.counters().predicateTests - testsBefore, events);
    }
}

TEST(AllocGate, BaselineSynchRunAllocatesAtMostTwicePerOp)
{
    if (!FramePool::enabled)
        GTEST_SKIP() << "frame pool is off under AddressSanitizer";
    EXPECT_LE(warmProtocolAllocsPerOp<simproto::ClusterB>(
                  simproto::PersistModel::Synch,
                  simproto::OffloadOptions::minosB()),
              protocolAllocBound);
}

TEST(AllocGate, OffloadStrictRunAllocatesAtMostTwicePerOp)
{
    if (!FramePool::enabled)
        GTEST_SKIP() << "frame pool is off under AddressSanitizer";
    EXPECT_LE(warmProtocolAllocsPerOp<snic::ClusterO>(
                  simproto::PersistModel::Strict,
                  simproto::OffloadOptions::minosO()),
              protocolAllocBound);
}

TEST(AllocGate, OffloadScopeRunStaysUnderItsBound)
{
    if (!FramePool::enabled)
        GTEST_SKIP() << "frame pool is off under AddressSanitizer";
    EXPECT_LE(warmProtocolAllocsPerOp<snic::ClusterO>(
                  simproto::PersistModel::Scope,
                  simproto::OffloadOptions::minosO()),
              scopeAllocBound);
}

namespace {

/** Peak heap bytes above the start of one write-only <Lin,Event> run on
 *  MINOS-O, and the keys backed up behind the dFIFOs at their peaks,
 *  summed over the nodes. */
std::pair<std::int64_t, std::size_t>
eventBacklogPeak(int dfifoEntries)
{
    simproto::RunSpec spec{.engine = simproto::Engine::O,
                           .model = simproto::PersistModel::Event};
    spec.cfg.dfifoEntries = dfifoEntries;
    spec.dc.requestsPerNode = 2000;
    spec.dc.ycsb.writeFraction = 1;
    const std::int64_t before = test::liveBytes();
    test::resetPeakBytes();
    const simproto::RunReport report = simproto::run(spec);
    std::size_t backlog = 0;
    for (std::size_t lag : report.durableLagPeak)
        backlog += lag;
    return {test::peakBytes() - before, backlog};
}

} // namespace

TEST(MemoryGate, BackedUpPersistHoldsAtMostItsTwoFrames)
{
    // Fifo.EventDurabilityLagIsSetByTheDfifoBandwidth's run: write-only
    // <Lin,Event> backs persists up behind a 5-entry dFIFO, ~1 300 keys
    // per node at the peak; unlimited, a few. Each backed-up persist
    // holds two coroutine frames (its backgroundPersist Process and its
    // DFifo::enqueue Task), so the peak heap grows with the backlog. A
    // frame that grows past a FramePool size class adds 64 B per
    // persist: peak bytes per backed-up key read 640 here, 775 when
    // DFifo::enqueue awaited a nested marker coroutine, and 892 when
    // backgroundPersist's body held its scope bookkeeping inline.
    if (!FramePool::enabled)
        GTEST_SKIP() << "frame pool is off under AddressSanitizer";
    const auto [peakFree, lagFree] = eventBacklogPeak(0);
    const auto [peak, lag] = eventBacklogPeak(5);
    ASSERT_GT(lag, 100 * lagFree);
    const double perKey = static_cast<double>(peak - peakFree) /
                          static_cast<double>(lag - lagFree);
    EXPECT_LE(perKey, 704.0) << peak << " B at the peak against " << peakFree
                           << " unlimited; " << lag << " against "
                           << lagFree << " keys backed up";
}

TEST(Link, UncontendedTransferIsLatencyPlusSerialization)
{
    Simulator sim;
    // 1 GB/s => 1 byte/ns; 1024B message = 1024ns serialization.
    Link link(sim, 150, 1e9);
    Tick arrival = link.transfer(1024);
    EXPECT_EQ(arrival, 1024 + 150);
    EXPECT_EQ(link.bytesTransferred(), 1024u);
}

TEST(Link, BackToBackTransfersSerialize)
{
    Simulator sim;
    Link link(sim, 100, 1e9);
    Tick a1 = link.transfer(1000);
    Tick a2 = link.transfer(1000);
    EXPECT_EQ(a1, 1100);
    EXPECT_EQ(a2, 2100); // second waits for the first's serialization
}

TEST(Link, PerMessageOverheadIsCharged)
{
    Simulator sim;
    Link link(sim, 0, 0.0, 300); // infinite BW, 300ns per message
    EXPECT_EQ(link.transfer(1 << 20), 300);
    EXPECT_EQ(link.transfer(64), 600);
}

TEST(Link, PreviewDoesNotOccupy)
{
    Simulator sim;
    Link link(sim, 100, 1e9);
    Tick preview = link.previewArrival(1000);
    EXPECT_EQ(preview, 1100);
    EXPECT_EQ(link.busyUntil(), 0);
    EXPECT_EQ(link.transfer(1000), preview);
}

namespace {

Process
poolUser(CorePool *pool, Tick cost, std::vector<Tick> *done,
         Simulator *simp)
{
    co_await pool->compute(cost);
    done->push_back(simp->now());
}

} // namespace

TEST(CorePool, LimitsConcurrency)
{
    Simulator sim;
    CorePool pool(sim, 2);
    std::vector<Tick> done;
    for (int i = 0; i < 4; ++i)
        sim.spawn(poolUser(&pool, 100, &done, &sim));
    sim.run();
    ASSERT_EQ(done.size(), 4u);
    std::sort(done.begin(), done.end());
    // 2 cores, 4 jobs of 100: two finish at 100, two at 200.
    EXPECT_EQ(done[0], 100);
    EXPECT_EQ(done[1], 100);
    EXPECT_EQ(done[2], 200);
    EXPECT_EQ(done[3], 200);
    EXPECT_EQ(pool.freeCores(), 2);
}

TEST(CorePool, SingleCoreSerializesFifo)
{
    Simulator sim;
    CorePool pool(sim, 1);
    std::vector<Tick> done;
    for (int i = 0; i < 3; ++i)
        sim.spawn(poolUser(&pool, 10, &done, &sim));
    sim.run();
    EXPECT_EQ(done, (std::vector<Tick>{10, 20, 30}));
}

namespace {

Process
tagUser(CorePool *pool, int id, std::vector<int> *order)
{
    co_await pool->acquire();
    order->push_back(id);
    co_await delay(10);
    pool->release();
}

} // namespace

TEST(CorePool, ReleaseHandsOffFifoWithoutHerd)
{
    // One freed core resumes exactly one waiter: waiters acquire in
    // arrival order, and each release produces a single wakeup event
    // instead of waking the whole herd.
    Simulator sim;
    CorePool pool(sim, 1);
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        sim.spawn(tagUser(&pool, i, &order));
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    // 7 releases with a waiter present -> exactly 7 handoff wakeups;
    // with notifyAll it would have been 7+6+...+1 = 28.
    EXPECT_EQ(pool.freeCores(), 1);
}

namespace {

Process
orderedPoolUser(CorePool *pool, Tick lead, int id, std::vector<int> *order)
{
    co_await delay(lead);
    co_await pool->compute(10);
    order->push_back(id);
}

Process
computeThenMark(CorePool *pool, Tick cost, Tick *done, Simulator *simp)
{
    co_await pool->compute(cost);
    *done = simp->now();
}

} // namespace

TEST(CorePool, HundredWaitersHandOffFifoAcrossASameTickSteal)
{
    // 100 users queue on one core. At tick 10 the first one releases it
    // and notifyOne() hands it to user 1, but a same-tick acquirer whose
    // delay ends right after the release takes the free core first. User
    // 1's batch then finds no core and re-parks at the back, as its
    // `while (!free) wait();` loop would, so it runs last; every other
    // handoff is FIFO, one wakeup and one predicate test each.
    Simulator sim;
    CorePool pool(sim, 1);
    std::vector<int> order;
    for (int i = 0; i < 100; ++i)
        sim.spawn(orderedPoolUser(&pool, 0, i, &order));
    sim.spawn(orderedPoolUser(&pool, 10, 1000, &order));
    sim.run();

    std::vector<int> expected{0, 1000};
    for (int i = 2; i < 100; ++i)
        expected.push_back(i);
    expected.push_back(1);
    EXPECT_EQ(order, expected);
    EXPECT_EQ(sim.now(), 101 * 10);
    EXPECT_EQ(pool.freeCores(), 1);
    // Users 2..99 are tested once, user 1 twice; the stealer never waits.
    EXPECT_EQ(sim.counters().predicateTests, 100u);
    EXPECT_EQ(sim.numLiveProcesses(), 0u);
}

TEST(CorePool, ComputeOnAFreeCoreIsOneTimedEvent)
{
    // With a core free, compute() takes it at once, schedules only the
    // caller's resume and gives the core back when the caller resumes.
    Simulator sim;
    CorePool pool(sim, 2);
    Tick done = -1;
    sim.spawn(computeThenMark(&pool, 30, &done, &sim));
    sim.runUntil(0);
    EXPECT_EQ(pool.freeCores(), 1);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run();
    EXPECT_EQ(done, 30);
    EXPECT_EQ(pool.freeCores(), 2);

    // A zero cost never suspends and never holds the core.
    Tick instant = -1;
    sim.spawn(computeThenMark(&pool, 0, &instant, &sim));
    sim.runUntil(sim.now());
    EXPECT_EQ(instant, 30);
    EXPECT_EQ(pool.freeCores(), 2);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

namespace {

/** Small pseudo-random draws, one stream per actor. */
struct Draws
{
    std::uint64_t x;

    int
    operator()(int n)
    {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<int>((x >> 33) % static_cast<std::uint64_t>(n));
    }
};

/** Records whose levels waiters watch, keyed or not, on one Condition. */
struct KeyedRig
{
    explicit KeyedRig(bool keyed) : keyed(keyed) {}

    bool keyed;
    Simulator sim;
    Condition cond{sim};
    std::array<int, 4> level{};
    std::array<WaitKey, 4> keys;
    int global = 0;
    std::vector<std::pair<Tick, int>> log;
};

Process
levelWaiter(KeyedRig *r, int id)
{
    Draws d{static_cast<std::uint64_t>(id) * 31 + 7};
    for (int round = 0; round < 4; ++round) {
        int rec = d(4);
        int target = r->level[rec] + 1 + d(2);
        auto reached = [r, rec, target] { return r->level[rec] >= target; };
        if (r->keyed)
            co_await r->cond.until(r->keys[rec], reached);
        else
            co_await r->cond.until(reached);
        r->log.push_back({r->sim.now(), id});
        co_await delay(d(3));
    }
}

Process
globalWaiter(KeyedRig *r, int id)
{
    Draws d{static_cast<std::uint64_t>(id) * 17 + 3};
    for (int round = 0; round < 4; ++round) {
        int target = r->global + 1;
        co_await r->cond.until([r, target] { return r->global >= target; });
        r->log.push_back({r->sim.now(), id});
        co_await delay(d(3));
    }
}

Process
levelChanger(KeyedRig *r)
{
    Draws d{99};
    for (int i = 0; i < 600; ++i) {
        co_await delay(d(3));
        int what = d(6);
        if (what < 4) {
            ++r->level[what];
            r->keys[what].fire();
        } else {
            ++r->global;
        }
        if (d(4) == 0)
            r->cond.notifyOne();
        else
            r->cond.notifyAll();
        if (d(3) == 0)
            r->cond.notifyAll(); // a second batch from the same event
    }
}

/** Resume log and predicate tests of one run. */
std::pair<std::vector<std::pair<Tick, int>>, std::uint64_t>
runLevels(bool keyed)
{
    KeyedRig r(keyed);
    for (int id = 0; id < 40; ++id)
        r.sim.spawn(levelWaiter(&r, id));
    for (int id = 100; id < 106; ++id)
        r.sim.spawn(globalWaiter(&r, id));
    r.sim.spawn(levelChanger(&r));
    r.sim.run();
    return {std::move(r.log), r.sim.counters().predicateTests};
}

} // namespace

namespace {

Process
keyedFlagWaiter(Condition *cond, WaitKey *key, const bool *flag, int id,
                std::vector<int> *woke)
{
    co_await cond->until(*key, [flag] { return *flag; });
    woke->push_back(id);
}

} // namespace

TEST(Condition, KeyedRunSplitsAroundAFiredWaiter)
{
    // Three keyed waiters park back to back, one run. Only the middle
    // one's key fires: the batch tests it alone, resumes it, and
    // re-parks the other two in order without testing them; the last
    // one leaves as a run of its own once no fired key is left.
    Simulator sim;
    Condition cond(sim);
    WaitKey keys[3];
    bool flags[3] = {false, false, false};
    std::vector<int> woke;
    for (int i = 0; i < 3; ++i)
        sim.spawn(keyedFlagWaiter(&cond, &keys[i], &flags[i], i, &woke));
    sim.run();
    ASSERT_EQ(cond.numWaiters(), 3u);

    flags[1] = true;
    keys[1].fire();
    cond.notifyAll();
    sim.run();
    EXPECT_EQ(woke, (std::vector<int>{1}));
    EXPECT_EQ(cond.numWaiters(), 2u);
    EXPECT_EQ(sim.counters().predicateTests, 1u);

    // Unfired keyed waiters cost no test at all.
    cond.notifyAll();
    sim.run();
    EXPECT_EQ(sim.counters().predicateTests, 1u);

    flags[0] = flags[2] = true;
    keys[2].fire();
    keys[0].fire();
    cond.notifyOne(); // splits the run: 0 alone, then 2 with notifyAll
    cond.notifyAll();
    sim.run();
    EXPECT_EQ(woke, (std::vector<int>{1, 0, 2}));
    EXPECT_EQ(cond.numWaiters(), 0u);
    EXPECT_EQ(sim.counters().predicateTests, 3u);
}

TEST(Condition, KeyedWaitersResumeInThePlainOrder)
{
    // Waiters on four record levels, keyed by record or not, mixed with
    // plain waiters on a global level, under notifyAll (sometimes twice
    // per event) and notifyOne. Skipping the keyed waiters whose key did
    // not fire must not move a single resume, only save tests.
    auto [plain, plainTests] = runLevels(false);
    auto [keyed, keyedTests] = runLevels(true);
    ASSERT_EQ(plain.size(), 46u * 4);
    EXPECT_EQ(keyed, plain);
    EXPECT_LT(keyedTests * 2, plainTests);
}

namespace {

Process
wgWorker(WaitGroup *wg, Tick d)
{
    co_await delay(d);
    wg->done();
}

Process
wgJoiner(WaitGroup *wg, Tick *joined_at, Simulator *simp)
{
    co_await wg->wait();
    *joined_at = simp->now();
}

} // namespace

TEST(WaitGroup, JoinsAllWorkers)
{
    Simulator sim;
    WaitGroup wg(sim);
    Tick joined = -1;
    wg.add(3);
    sim.spawn(wgWorker(&wg, 10));
    sim.spawn(wgWorker(&wg, 50));
    sim.spawn(wgWorker(&wg, 30));
    sim.spawn(wgJoiner(&wg, &joined, &sim));
    sim.run();
    EXPECT_EQ(joined, 50);
    EXPECT_EQ(wg.count(), 0u);
}

// ---------------------------------------------------------------------
// Golden runs: the event core's dispatch order is part of the simulated
// result. Small seeded MINOS-B and MINOS-O runs must reproduce these
// hashes. Each run pins two: a *results* hash (every latency sample, op
// counts, makespan and the Fig. 4 comm/comp sums) and a *counters* hash
// (every node's NodeCounters), so a counting fix can move the second
// while the first proves the simulated behaviour did not change. The
// default-option runs were first taken before the batched predicated
// wakeups and the key-only timer heap; the option and mutation variants
// cover paths the default options never take.
// ---------------------------------------------------------------------

namespace {

struct GoldenHashes
{
    std::uint64_t results;
    std::uint64_t counters;
};

/** FNV-1a accumulator over 64-bit words. */
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

    void
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
};

/** The client load of a golden run; the defaults are the small runs. */
struct GoldenLoad
{
    std::uint64_t requestsPerNode = 300;
    int workersPerNode = 3;
    double writeFraction = workload::YcsbConfig{}.writeFraction;
};

/** How full the dFIFOs of a MINOS-O golden run got, over all nodes. */
struct GoldenDfifo
{
    std::size_t peak = 0;        ///< deepest queue
    std::uint64_t fullWaits = 0; ///< enqueues that waited for a slot
};

/**
 * Hashes of one small seeded run of @p ClusterT under @p model. For
 * MINOS-O, @p dfifo (if given) receives how full the dFIFOs got.
 */
template <typename ClusterT>
GoldenHashes
goldenHash(simproto::PersistModel model, simproto::OffloadOptions opts,
           simproto::ClusterConfig cfg = {}, GoldenLoad load = {},
           GoldenDfifo *dfifo = nullptr)
{
    Simulator sim;
    cfg.numNodes = 3;
    cfg.numRecords = 64;
    ClusterT cluster(sim, cfg, model, opts);
    simproto::DriverConfig dc;
    dc.requestsPerNode = load.requestsPerNode;
    dc.workersPerNode = load.workersPerNode;
    dc.ycsb.numRecords = cfg.numRecords;
    dc.ycsb.writeFraction = load.writeFraction;
    dc.ycsb.seed = 2024;
    simproto::RunResult res = simproto::runWorkload(sim, cluster, dc);
    // Every transaction retired and no hold leaked.
    for (int n = 0; n < cfg.numNodes; ++n)
        EXPECT_EQ(cluster.node(static_cast<kv::NodeId>(n)).pendingTxns(),
                  0u)
            << "node " << n;
    if constexpr (std::is_same_v<ClusterT, snic::ClusterO>) {
        if (dfifo) {
            *dfifo = {};
            for (int n = 0; n < cfg.numNodes; ++n) {
                const snic::DFifo &f =
                    cluster.node(static_cast<kv::NodeId>(n)).dfifo();
                dfifo->peak = std::max(dfifo->peak, f.peakOccupancy());
                dfifo->fullWaits += f.fullWaits();
            }
        }
    }

    Fnv results;
    results.add(res.writeLat.digest());
    results.add(res.readLat.digest());
    results.add(res.persistLat.digest());
    results.add(res.writes);
    results.add(res.reads);
    results.add(res.obsoleteWrites);
    results.add(static_cast<std::uint64_t>(res.duration));
    results.add(res.breakdown.commNs);
    results.add(res.breakdown.compNs);
    results.add(res.breakdown.count);

    Fnv counters;
    for (int n = 0; n < cfg.numNodes; ++n) {
        const simproto::NodeCounters &c =
            cluster.node(static_cast<kv::NodeId>(n)).counters();
        for (std::uint64_t v :
             {c.invsSent, c.valsSent, c.acksSent, c.invsReceived,
              c.acksReceived, c.valsReceived, c.writesCoordinated,
              c.writesObsoleteCut, c.invsObsolete, c.rdLockSnatches,
              c.persists})
            counters.add(v);
    }
    return {results.h, counters.h};
}

/** Check all five models of one engine/option set against @p expected. */
template <typename ClusterT>
void
expectGoldenModels(simproto::OffloadOptions opts,
                   const GoldenHashes (&expected)[5])
{
    for (std::size_t i = 0; i < simproto::allModels.size(); ++i) {
        simproto::PersistModel m = simproto::allModels[i];
        SCOPED_TRACE(std::string(simproto::modelName(m)));
        GoldenHashes got = goldenHash<ClusterT>(m, opts);
        EXPECT_EQ(got.results, expected[i].results);
        EXPECT_EQ(got.counters, expected[i].counters);
    }
}

/** The four engine-neutral mutants, one at a time. */
std::array<simproto::ClusterConfig::MutationHooks, 4>
goldenMutants()
{
    std::array<simproto::ClusterConfig::MutationHooks, 4> m{};
    m[0].releaseRdLockEarly = true;
    m[1].ackBeforePersist = true;
    m[2].dropOnePersistAck = true;
    m[3].duplicateAck = true;
    return m;
}

/** Check every mutant under <Lin,Strict> against @p expected. */
template <typename ClusterT>
void
expectGoldenMutants(simproto::OffloadOptions opts,
                    const GoldenHashes (&expected)[4])
{
    auto mutants = goldenMutants();
    for (std::size_t i = 0; i < mutants.size(); ++i) {
        SCOPED_TRACE("mutant " + std::to_string(i));
        simproto::ClusterConfig cfg;
        cfg.mutations = mutants[i];
        GoldenHashes got = goldenHash<ClusterT>(
            simproto::PersistModel::Strict, opts, cfg);
        EXPECT_EQ(got.results, expected[i].results);
        EXPECT_EQ(got.counters, expected[i].counters);
    }
}

} // namespace

TEST(GoldenRun, BaselineEngineMatchesPinnedResults)
{
    const GoldenHashes expected[] = {
        {17419382534416538390ull,
         5533034729125723764ull},
        {15337612004604645663ull,
         15159702686667604005ull},
        {11997798595209905048ull,
         15179335536022849559ull},
        {13415824569558473041ull,
         11705735461206129805ull},
        {9760044723973153118ull,
         4481431366131491117ull}};
    expectGoldenModels<simproto::ClusterB>(
        simproto::OffloadOptions::minosB(), expected);
}

TEST(GoldenRun, OffloadEngineMatchesPinnedResults)
{
    const GoldenHashes expected[] = {
        {9157198535370867036ull,
         11840890713306256628ull},
        {5547213224425368595ull,
         14113914277767281081ull},
        {312398969786610278ull,
         16571833502771896584ull},
        {12957031230829458061ull,
         13867407775328648969ull},
        {5186493880179171194ull,
         2029322878760862112ull}};
    expectGoldenModels<snic::ClusterO>(
        simproto::OffloadOptions::minosO(), expected);
}

TEST(GoldenRun, BaselineEngineWithBatchingMatchesPinnedResults)
{
    const GoldenHashes expected[] = {
        {7600689014868813602ull,
         4974139578902495363ull},
        {9151750133237458219ull,
         7509297414137290379ull},
        {239886864485525613ull,
         11781305191624166697ull},
        {8543792476698453435ull,
         877925069367447662ull},
        {2584710063979132651ull,
         13518015556473276552ull}};
    simproto::OffloadOptions opts = simproto::OffloadOptions::minosB();
    opts.batching = true;
    expectGoldenModels<simproto::ClusterB>(opts, expected);
}

TEST(GoldenRun, OffloadEngineWithoutBatchingMatchesPinnedResults)
{
    // Every ACK crosses PCIe on its own: the host ACK mirror gates.
    const GoldenHashes expected[] = {
        {10466062685387472797ull,
         4074934247726112392ull},
        {7944875704739143529ull,
         3739622600329153887ull},
        {5448017235909728881ull,
         5491640911770736640ull},
        {260408311228604424ull,
         3201973532993239551ull},
        {8780118113599261794ull,
         1037875507220410121ull}};
    simproto::OffloadOptions opts = simproto::OffloadOptions::minosO();
    opts.batching = false;
    expectGoldenModels<snic::ClusterO>(opts, expected);
}

TEST(GoldenRun, OffloadEngineWithoutBroadcastMatchesPinnedResults)
{
    const GoldenHashes expected[] = {
        {17726578439863992195ull,
         934486509143299630ull},
        {11117239116215629722ull,
         5951698581340861513ull},
        {6252467080305501377ull,
         13032113844287806837ull},
        {2666009603349071063ull,
         18101891303038143800ull},
        {8461193511366503510ull,
         176927906447224370ull}};
    simproto::OffloadOptions opts = simproto::OffloadOptions::minosO();
    opts.broadcast = false;
    expectGoldenModels<snic::ClusterO>(opts, expected);
}

TEST(GoldenRun, BaselineEngineWithBatchingAndBroadcastMatchesPinnedResults)
{
    // One PCIe crossing, one NIC deposit and one wire copy per fan-out.
    const GoldenHashes expected[] = {
        {14931532472026780644ull,
         13105957863714538612ull},
        {14626957981740681789ull,
         4744080798999907986ull},
        {11391769850742263654ull,
         12947674765626838902ull},
        {11220010911033854700ull,
         10408921810665353569ull},
        {11001514276928827835ull,
         1672646811972685873ull}};
    expectGoldenModels<simproto::ClusterB>(
        simproto::OffloadOptions::minosO(), expected);
}

TEST(GoldenRun, OffloadEngineCombinedOnlyMatchesPinnedResults)
{
    // Fig. 12 "Combined": no batching, no broadcast.
    const GoldenHashes expected[] = {
        {3140604456057315486ull,
         10225009152017056295ull},
        {10656359682347558290ull,
         13388529424358303592ull},
        {5554218263904710850ull,
         12335969753407285176ull},
        {5384135105154558144ull,
         3588772879514964201ull},
        {8158858338359707765ull,
         15107162390494413032ull}};
    expectGoldenModels<snic::ClusterO>(simproto::OffloadOptions::minosB(),
                                       expected);
}

TEST(GoldenRun, BaselineEngineMutantsMatchPinnedResults)
{
    const GoldenHashes expected[] = {
        {2885214305175762401ull,
         7320234807240319653ull},
        {16916126733508890793ull,
         17135269497779545772ull},
        {872280298612522538ull,
         15667611074189736740ull},
        {17177011535310371411ull,
         11068898646928916167ull}};
    expectGoldenMutants<simproto::ClusterB>(
        simproto::OffloadOptions::minosB(), expected);
}

TEST(GoldenRun, OffloadEngineMutantsMatchPinnedResults)
{
    const GoldenHashes expected[] = {
        {9619801631402382900ull,
         10979078466283535788ull},
        {6849597807544736500ull,
         17900808119631343759ull},
        {12587538359363565671ull,
         5483392484424929019ull},
        {3408290244759279061ull,
         9848488553940322035ull}};
    expectGoldenMutants<snic::ClusterO>(
        simproto::OffloadOptions::minosO(), expected);
}

TEST(GoldenRun, SsdPersistsMatchPinnedResults)
{
    // Fig. 14's SSD point: 100 us per KiB of host NVM. Every MINOS-B
    // persist is scheduled beyond the event wheel's span, so it runs
    // through the far heap. MINOS-O persists to the NIC dFIFO at the
    // fixed Table III latency, so its run equals the default Synch pin.
    simproto::ClusterConfig cfg;
    cfg.persistNsPerKb = 100000;
    ASSERT_GT(nvm::persistLatency(cfg.persistNsPerKb, cfg.recordBytes),
              Simulator::wheelSpan);
    GoldenHashes b = goldenHash<simproto::ClusterB>(
        simproto::PersistModel::Synch, simproto::OffloadOptions::minosB(),
        cfg);
    EXPECT_EQ(b.results, 914791598113889233ull);
    EXPECT_EQ(b.counters, 18330940827710514663ull);
    GoldenHashes o = goldenHash<snic::ClusterO>(
        simproto::PersistModel::Synch, simproto::OffloadOptions::minosO(),
        cfg);
    EXPECT_EQ(o.results, 9157198535370867036ull);
    EXPECT_EQ(o.counters, 11840890713306256628ull);
}

TEST(GoldenRun, SaturatedFifosMatchPinnedResults)
{
    // Write-only MINOS-O Event and REnf runs long enough for the persist
    // backlog to build, and Strict with one-entry FIFOs: enqueuers here
    // keep waiting on a full FIFO, so these runs pin the order in which
    // the slot waits resume. (At the default timing the dFIFO queue peaks
    // at 2 of 5 entries: the other slots are claimed by writes still in
    // flight, which is why the waits are counted instead.)
    GoldenLoad load;
    load.requestsPerNode = 1500;
    load.workersPerNode = 5;
    load.writeFraction = 1.0;
    const simproto::PersistModel models[] = {simproto::PersistModel::Event,
                                             simproto::PersistModel::REnf};
    const GoldenHashes expected[] = {
        {3482457310873649680ull,
         16469623273504604497ull},
        {16984483294649069982ull,
         4238611649510034384ull}};
    for (std::size_t i = 0; i < 2; ++i) {
        SCOPED_TRACE(std::string(simproto::modelName(models[i])));
        GoldenDfifo dfifo;
        GoldenHashes got = goldenHash<snic::ClusterO>(
            models[i], simproto::OffloadOptions::minosO(), {}, load,
            &dfifo);
        EXPECT_GT(dfifo.fullWaits, load.requestsPerNode * 3);
        EXPECT_EQ(got.results, expected[i].results);
        EXPECT_EQ(got.counters, expected[i].counters);
    }

    simproto::ClusterConfig cfg;
    cfg.vfifoEntries = 1;
    cfg.dfifoEntries = 1;
    GoldenDfifo dfifo;
    GoldenHashes strict = goldenHash<snic::ClusterO>(
        simproto::PersistModel::Strict, simproto::OffloadOptions::minosO(),
        cfg, {}, &dfifo);
    EXPECT_EQ(dfifo.peak, 1u);
    EXPECT_GT(dfifo.fullWaits, 0u);
    EXPECT_EQ(strict.results, 13251349027965269744ull);
    EXPECT_EQ(strict.counters, 2361830347534987838ull);
}

TEST(WaitHerd, PredicateTestsPerOpStayFlatAsTheBacklogGrows)
{
    // MINOS-O Event at 100% writes: background persists outpace the
    // dFIFO drain, so the number of enqueuers waiting for a slot grows
    // all run long. A wakeup that re-tests every parked waiter costs
    // O(backlog) and the tests per op grow with the run; wakeups that
    // cost O(1 + resumed) keep them flat.
    auto testsPerOp = [](std::uint64_t requests) {
        simproto::RunSpec spec{.engine = simproto::Engine::O,
                               .model = simproto::PersistModel::Event};
        spec.cfg.numNodes = 5;
        spec.cfg.numRecords = 1000;
        spec.dc.requestsPerNode = requests;
        spec.dc.workersPerNode = 5;
        spec.dc.ycsb.numRecords = spec.cfg.numRecords;
        spec.dc.ycsb.writeFraction = 1.0;
        const simproto::RunResult res = simproto::run(spec).result;
        return static_cast<double>(res.eventCore.predicateTests) /
               static_cast<double>(res.writes + res.reads);
    };
    const double small = testsPerOp(500);
    const double large = testsPerOp(2000);
    EXPECT_GT(small, 0.0);
    EXPECT_LE(std::abs(large - small), 0.1 * small)
        << "predicate tests per op: " << small << " at 500 requests/node, "
        << large << " at 2000";
}

