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
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_hook.hh"
#include "sim/condition.hh"
#include "sim/network.hh"
#include "sim/process.hh"
#include "sim/simulator.hh"
#include "simproto/cluster_b.hh"
#include "simproto/driver.hh"
#include "snic/cluster_o.hh"

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
    // (sitting in the heap) must run before a same-tick event scheduled
    // *during* tick 5 (sitting in the ready ring).
    Simulator sim;
    std::vector<int> order;
    sim.schedule(5, [&] {
        order.push_back(0);
        sim.after(0, [&] { order.push_back(2); }); // ring, seq 2
    });
    sim.schedule(5, [&] { order.push_back(1); }); // heap, seq 1
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, CountersTrackRingAndHeapTraffic)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(0, [&] { ++fired; });  // now == 0: ready ring
    sim.schedule(10, [&] { ++fired; }); // future: heap
    sim.schedule(10, [&] {              // future: heap
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

TEST(Simulator, PendingEventsAreDestroyedAtTeardown)
{
    // Undispatched closures (ring and heap) must release their captures
    // when the simulator dies mid-run.
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
    // Guard against ready-ring/heap ordering drift: a pseudorandom
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
    // A `while (!p) co_await wait();` loop per waiter, with one ring event
    // per wakeup, gives: 0 resumes; 1 re-tests false and re-waits; 2 resumes,
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
    TimerHeavy,  ///< pseudorandom future delays: a deep timed heap
    WakeupHeavy, ///< `after(0, ...)` chains: the ready ring
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

/**
 * Allowed allocations per client op on the protocol runs. Not 0: a
 * node's sparse nextLocalVersion_ map gains an entry on each key's first
 * write (see DESIGN.md §5f), and the latency series grow.
 */
constexpr double protocolAllocBound = 2.0;

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
    // Outstanding chains: timer-heavy keeps a deep heap, wakeup-heavy a
    // busy ring.
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
        // Warm the ring and heap, then measure on the same simulator.
        dispatchAllocs(sim, w.shape, events / 10, w.chains, &sink);
        std::uint64_t executedBefore = sim.eventsExecuted();
        EXPECT_EQ(dispatchAllocs(sim, w.shape, events, w.chains, &sink),
                  0u);
        EXPECT_EQ(sim.eventsExecuted() - executedBefore,
                  events + static_cast<std::uint64_t>(w.chains));
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

/** Hashes of one small seeded run of @p ClusterT under @p model. */
template <typename ClusterT>
GoldenHashes
goldenHash(simproto::PersistModel model, simproto::OffloadOptions opts,
           simproto::ClusterConfig::MutationHooks mutations = {})
{
    Simulator sim;
    simproto::ClusterConfig cfg;
    cfg.numNodes = 3;
    cfg.numRecords = 64;
    cfg.mutations = mutations;
    ClusterT cluster(sim, cfg, model, opts);
    simproto::DriverConfig dc;
    dc.requestsPerNode = 300;
    dc.workersPerNode = 3;
    dc.ycsb.numRecords = cfg.numRecords;
    dc.ycsb.seed = 2024;
    simproto::RunResult res = simproto::runWorkload(sim, cluster, dc);
    // Every transaction retired and no hold leaked.
    for (int n = 0; n < cfg.numNodes; ++n)
        EXPECT_EQ(cluster.node(static_cast<kv::NodeId>(n)).pendingTxns(),
                  0u)
            << "node " << n;

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
        GoldenHashes got = goldenHash<ClusterT>(
            simproto::PersistModel::Strict, opts, mutants[i]);
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
        {15227028478125849359ull,
         14671937009452747475ull},
        {5547213224425368595ull,
         14113914277767281081ull},
        {13762202479511444425ull,
         1227373615318423089ull},
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
        {8599162377403865004ull,
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
        {16592423327874848555ull,
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
