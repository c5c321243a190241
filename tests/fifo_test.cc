/**
 * @file
 * Direct unit tests of the MINOS-O SmartNIC hardware queues (vFIFO and
 * dFIFO, paper §V-B.4): ordering, obsolete filtering, capacity
 * blocking, drain pipelining, and the durability point; and the slot
 * waits (SlotQueue) against the Condition they replace.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/network.hh"
#include "snic/fifo.hh"

using namespace minos;
using namespace minos::sim;
using namespace minos::snic;
using kv::Timestamp;

namespace {

struct Rig
{
    explicit Rig(int entries = 5)
    {
        cfg.vfifoEntries = entries;
        cfg.dfifoEntries = entries;
        cfg.numRecords = 16;
        store = std::make_unique<simproto::ReplicaStore>(cfg.numRecords);
        dma = std::make_unique<Link>(sim, cfg.pcieLatencyNs,
                                     cfg.pcieBwBytesPerSec, 30);
        progress = std::make_unique<Condition>(sim);
        vfifo = std::make_unique<VFifo>(sim, cfg, *store, *dma,
                                        *progress);
        dfifo = std::make_unique<DFifo>(sim, cfg, *store, *dma,
                                        *progress);
    }

    sim::Simulator sim;
    simproto::ClusterConfig cfg;
    std::unique_ptr<simproto::ReplicaStore> store;
    std::unique_ptr<Link> dma;
    std::unique_ptr<Condition> progress;
    std::unique_ptr<VFifo> vfifo;
    std::unique_ptr<DFifo> dfifo;
};

sim::Process
enqueueAndWait(Rig *rig, kv::Key key, kv::Value value, Timestamp ts,
               Tick *done_at)
{
    std::uint64_t id = co_await rig->vfifo->enqueue(key, value, ts);
    co_await rig->vfifo->waitDrained(id);
    if (done_at)
        *done_at = rig->sim.now();
}

} // namespace

TEST(VFifo, DrainAppliesToStore)
{
    Rig rig;
    Tick done = 0;
    rig.sim.spawn(enqueueAndWait(&rig, 3, 99, Timestamp{0, 0}, &done));
    rig.sim.run();
    EXPECT_EQ(rig.store->at(3).value, 99u);
    EXPECT_EQ(rig.store->at(3).volatileTs, (Timestamp{0, 0}));
    // Enqueue write + DMA to the host LLC both cost time.
    EXPECT_GE(done, rig.cfg.vfifoWriteNs + rig.cfg.pcieLatencyNs);
}

TEST(VFifo, ObsoleteEntriesAreSkipped)
{
    Rig rig;
    struct P
    {
        static sim::Process
        run(Rig *rig)
        {
            // Newer entry first, then an older one for the same key:
            // the older must be filtered at drain.
            auto id1 = co_await rig->vfifo->enqueue(5, 222,
                                                    Timestamp{2, 0});
            auto id2 = co_await rig->vfifo->enqueue(5, 111,
                                                    Timestamp{1, 0});
            co_await rig->vfifo->waitDrained(id1);
            co_await rig->vfifo->waitDrained(id2);
        }
    };
    rig.sim.spawn(P::run(&rig));
    rig.sim.run();
    EXPECT_EQ(rig.store->at(5).value, 222u);
    EXPECT_EQ(rig.store->at(5).volatileTs, (Timestamp{2, 0}));
    EXPECT_GE(rig.vfifo->skippedObsolete(), 1u);
}

TEST(VFifo, BoundedCapacityBlocksEnqueue)
{
    Rig small(1);
    Rig big(0); // unlimited
    auto burst = [](Rig *rig, Tick *done) {
        // Several concurrent producers each streaming multiple entries:
        // with a 1-entry FIFO, later enqueues must wait for drain slots.
        struct P
        {
            static sim::Process
            run(Rig *rig, kv::Key base, Tick *done)
            {
                std::uint64_t last = 0;
                for (int i = 0; i < 3; ++i)
                    last = co_await rig->vfifo->enqueue(
                        base, static_cast<kv::Value>(i),
                        Timestamp{i, static_cast<kv::NodeId>(base)});
                co_await rig->vfifo->waitDrained(last);
                *done = std::max(*done, rig->sim.now());
            }
        };
        for (kv::Key k = 0; k < 6; ++k)
            rig->sim.spawn(P::run(rig, k, done));
        rig->sim.run();
    };
    Tick t_small = 0, t_big = 0;
    burst(&small, &t_small);
    burst(&big, &t_big);
    // A 1-entry FIFO serializes the burst against the drain engine.
    EXPECT_GT(t_small, t_big);
}

TEST(VFifo, DrainPreservesFifoOrderPerKey)
{
    Rig rig;
    struct P
    {
        static sim::Process
        run(Rig *rig)
        {
            std::uint64_t last = 0;
            for (int v = 0; v < 6; ++v)
                last = co_await rig->vfifo->enqueue(
                    7, static_cast<kv::Value>(v),
                    Timestamp{v, 0});
            co_await rig->vfifo->waitDrained(last);
        }
    };
    rig.sim.spawn(P::run(&rig));
    rig.sim.run();
    // The newest version must be the survivor.
    EXPECT_EQ(rig.store->at(7).value, 5u);
    EXPECT_EQ(rig.store->at(7).volatileTs, (Timestamp{5, 0}));
}

TEST(DFifo, EnqueueIsTheDurabilityPoint)
{
    Rig rig;
    struct P
    {
        static sim::Process
        run(Rig *rig, std::size_t *log_size_at_enqueue)
        {
            co_await rig->dfifo->enqueue(1, 42, Timestamp{0, 0}, 1024);
            // Durable immediately after the enqueue completes, before
            // any background drain to the host.
            *log_size_at_enqueue = rig->store->durable().size();
        }
    };
    std::size_t at_enqueue = 0;
    rig.sim.spawn(P::run(&rig, &at_enqueue));
    rig.sim.run();
    EXPECT_EQ(at_enqueue, 1u);
    ASSERT_TRUE(rig.store->durableAt(1));
    EXPECT_EQ(rig.store->durableAt(1)->value, 42u);
}

TEST(DFifo, MarkersDoNotPolluteTheLog)
{
    Rig rig;
    struct P
    {
        static sim::Process
        run(Rig *rig)
        {
            co_await rig->dfifo->enqueueMarker(64);
            co_await rig->dfifo->enqueue(2, 7, Timestamp{0, 0}, 1024);
            co_await rig->dfifo->enqueueMarker(64);
        }
    };
    rig.sim.spawn(P::run(&rig));
    rig.sim.run();
    // Only the data entry lands in the durable log.
    EXPECT_EQ(rig.store->durable().size(), 1u);
    EXPECT_TRUE(rig.store->durableAt(2));
    EXPECT_EQ(rig.store->durableDb().size(), 1u);
}

TEST(DFifo, PersistAndDrainOfOneKeyLandInEitherOrder)
{
    // The durable state is the record plus an overlay of the keys whose
    // durable (value, TS) differs: a dFIFO persist may land before or
    // after the vFIFO drain of the same update, and the key stays in the
    // overlay only between the two.
    for (bool persist_first : {true, false}) {
        SCOPED_TRACE(persist_first ? "persist first" : "drain first");
        Rig rig;
        struct P
        {
            static sim::Process
            persist(Rig *rig, kv::Value value, Timestamp ts)
            {
                co_await rig->dfifo->enqueue(4, value, ts, 1024);
            }

            static sim::Process
            drain(Rig *rig, kv::Value value, Timestamp ts)
            {
                std::uint64_t id =
                    co_await rig->vfifo->enqueue(4, value, ts);
                co_await rig->vfifo->waitDrained(id);
            }
        };
        const nvm::DurableState &durable = rig.store->durable();
        auto step = [&](bool persist, kv::Value value, Timestamp ts) {
            rig.sim.spawn(persist ? P::persist(&rig, value, ts)
                                  : P::drain(&rig, value, ts));
            rig.sim.run();
        };

        step(persist_first, 11, Timestamp{0, 0});
        EXPECT_EQ(durable.lagging(), 1u);
        EXPECT_EQ(rig.store->durableAt(4).has_value(), persist_first);
        step(!persist_first, 11, Timestamp{0, 0});
        EXPECT_EQ(durable.lagging(), 0u);
        ASSERT_TRUE(rig.store->durableAt(4));
        EXPECT_EQ(rig.store->durableAt(4)->value, 11u);
        EXPECT_EQ(rig.store->at(4).value, 11u);

        // A newer update, in the same order: the durable state keeps the
        // older one until the newer is persisted too.
        step(persist_first, 12, Timestamp{1, 0});
        EXPECT_EQ(durable.lagging(), 1u);
        EXPECT_EQ(rig.store->durableAt(4)->value, persist_first ? 12u : 11u);
        step(!persist_first, 12, Timestamp{1, 0});
        EXPECT_EQ(durable.lagging(), 0u);
        EXPECT_EQ(rig.store->durableAt(4)->ts, (Timestamp{1, 0}));

        // A late persist of an older update changes nothing durable.
        step(true, 11, Timestamp{0, 0});
        EXPECT_EQ(durable.lagging(), 0u);
        EXPECT_EQ(rig.store->durableAt(4)->value, 12u);
        EXPECT_EQ(durable.size(), 3u);
        EXPECT_EQ(durable.peakLagging(), 1u);
        EXPECT_EQ(rig.store->durableDb().size(), 1u);
    }
}

TEST(DFifo, ScalesLatencyWithSize)
{
    Rig rig;
    struct P
    {
        static sim::Process
        run(Rig *rig, Tick *small_cost, Tick *big_cost)
        {
            Tick t0 = rig->sim.now();
            co_await rig->dfifo->enqueue(1, 1, Timestamp{0, 0}, 64);
            *small_cost = rig->sim.now() - t0;
            t0 = rig->sim.now();
            co_await rig->dfifo->enqueue(1, 2, Timestamp{1, 0}, 2048);
            *big_cost = rig->sim.now() - t0;
        }
    };
    Tick small = 0, big = 0;
    rig.sim.spawn(P::run(&rig, &small, &big));
    rig.sim.run();
    // The Table III dFIFO write latency is per KB.
    EXPECT_GT(big, small);
    EXPECT_NEAR(static_cast<double>(big), 2.0 * 1295.0, 10.0);
}

namespace {

/**
 * The slot waits as one Condition on which every enqueuer and the drain
 * engine wait with their predicates: the reference whose wakeup order
 * SlotQueue must reproduce.
 */
class ConditionSlots
{
  public:
    ConditionSlots(Simulator &sim, int cap)
        : cond_(sim), cap_(static_cast<std::size_t>(cap))
    {
    }

    Task<void>
    claim()
    {
        co_await cond_.until([this] { return entries_ + reserved_ < cap_; });
        ++reserved_;
    }

    void
    fill()
    {
        --reserved_;
        ++entries_;
        cond_.notifyAll();
    }

    Task<void>
    next()
    {
        co_await cond_.until([this] { return entries_ > 0; });
    }

    void
    take()
    {
        --entries_;
        cond_.notifyAll();
    }

  private:
    Condition cond_;
    std::size_t cap_;
    std::size_t entries_ = 0;
    std::size_t reserved_ = 0;
};

/** One step of one actor (-1: the drain engine), in dispatch order. */
struct SlotStep
{
    Tick at;
    int actor;
    int what; ///< 0 claimed, 1 filled, 2 took

    bool operator==(const SlotStep &) const = default;
};

/** A per-actor stream of small pseudo-random delays, many of them 0. */
struct Delays
{
    std::uint64_t x;

    Tick
    operator()(int n)
    {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<Tick>((x >> 33) % static_cast<std::uint64_t>(n));
    }
};

template <typename Slots>
Process
slotEnqueuer(Simulator *sim, Slots *slots, int id, std::vector<SlotStep> *log)
{
    Delays d{static_cast<std::uint64_t>(id) * 7919 + 1};
    for (int i = 0; i < 20; ++i) {
        co_await delay(d(3)); // think time
        co_await slots->claim();
        log->push_back({sim->now(), id, 0});
        co_await delay(d(3)); // write latency; a 0 fills inside the batch
        slots->fill();
        log->push_back({sim->now(), id, 1});
    }
}

template <typename Slots>
Process
slotDrainer(Simulator *sim, Slots *slots, std::vector<SlotStep> *log)
{
    Delays d{12345};
    for (;;) {
        co_await slots->next();
        slots->take();
        log->push_back({sim->now(), -1, 2});
        co_await delay(d(4));
    }
}

/** The steps and predicate tests of one run of @p enqueuers. */
template <typename Slots>
std::pair<std::vector<SlotStep>, std::uint64_t>
runSlots(int cap, int enqueuers)
{
    Simulator sim;
    Slots slots(sim, cap);
    std::vector<SlotStep> log;
    for (int id = 0; id < enqueuers; ++id)
        sim.spawn(slotEnqueuer(&sim, &slots, id, &log));
    sim.spawn(slotDrainer(&sim, &slots, &log));
    sim.run();
    return {std::move(log), sim.counters().predicateTests};
}

} // namespace

TEST(SlotQueue, ResumesInTheOrderOfAConditionWithPredicates)
{
    // Bursts of enqueuers with 0-3 tick think times and write latencies
    // against a drain engine with 0-3 tick gaps: many same-tick
    // notifications, enqueuers that fill and claim again inside a batch,
    // and a drain engine parked between runs of enqueuers. Every claim,
    // fill and take must happen in the same order and tick as with the
    // Condition, for fewer predicate tests.
    for (int cap : {1, 2, 3, 5}) {
        for (int enqueuers : {1, 4, 16, 64}) {
            SCOPED_TRACE("cap " + std::to_string(cap) + ", " +
                         std::to_string(enqueuers) + " enqueuers");
            auto [want, wantTests] = runSlots<ConditionSlots>(cap, enqueuers);
            auto [got, gotTests] = runSlots<SlotQueue>(cap, enqueuers);
            ASSERT_EQ(got.size(), 3u * 20 * enqueuers);
            EXPECT_TRUE(got == want);
            EXPECT_LE(gotTests, wantTests);
            // A deep backlog costs the Condition O(parked) per wakeup.
            if (enqueuers == 64) {
                EXPECT_LT(gotTests * 10, wantTests);
            }
        }
    }
}

