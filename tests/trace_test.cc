/**
 * @file
 * Integration tests of the flight recorder and phase spans with both
 * protocol engines: typed protocol/lock/FIFO events show up where the
 * protocol says they must, every write phase is spanned, and a detached
 * recorder leaves the simulated results bit-identical (the observability
 * layer observes, it does not perturb).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "obs/phase.hh"
#include "obs/recorder.hh"
#include "snic/run.hh"

using namespace minos;
using namespace minos::obs;
using namespace minos::simproto;

namespace {

struct TraceRun
{
    FlightRecorder recorder{1 << 14};
    WritePhaseStats phases;
    RunResult result;
};

DriverConfig
smallDriver(const ClusterConfig &cfg, double write_fraction)
{
    DriverConfig dc;
    dc.requestsPerNode = 60;
    dc.workersPerNode = 2;
    dc.ycsb.numRecords = cfg.numRecords;
    dc.ycsb.writeFraction = write_fraction;
    // DetachedRecorderDoesNotPerturbResults compares samples in order.
    dc.keepSampleOrder = true;
    return dc;
}

TraceRun
traceRun(Engine engine, int records = 8,
         PersistModel model = PersistModel::Synch)
{
    TraceRun run;
    RunSpec spec{.engine = engine, .model = model};
    spec.cfg.numNodes = 3;
    spec.cfg.numRecords = static_cast<std::uint64_t>(records);
    spec.cfg.trace = &run.recorder;
    spec.cfg.phases = &run.phases;
    spec.dc = smallDriver(spec.cfg, 1.0);
    run.result = simproto::run(spec).result;
    return run;
}

bool
sawKind(const std::vector<Record> &events, EventKind kind)
{
    for (const auto &e : events)
        if (e.kind == kind)
            return true;
    return false;
}

TEST(TraceIntegration, BaselineEngineEmitsTypedProtocolEvents)
{
    TraceRun run = traceRun(Engine::B);
    EXPECT_GT(run.recorder.recorded(), 0u);
    auto events = run.recorder.snapshot();
    EXPECT_TRUE(sawKind(events, EventKind::InvFanout));
    EXPECT_TRUE(sawKind(events, EventKind::InvApplied));
    EXPECT_TRUE(sawKind(events, EventKind::RdLockReleased));

    // The sorted snapshot is non-decreasing in tick (the raw ring is
    // not, because SpanBegin records are laid retroactively).
    Tick prev = 0;
    for (const auto &e : run.recorder.sortedSnapshot()) {
        EXPECT_GE(e.when, prev);
        prev = e.when;
    }
}

TEST(TraceIntegration, OffloadEngineEmitsSnicEvents)
{
    // Two records: conflicts, so the vFIFOs skip obsolete entries.
    TraceRun run = traceRun(Engine::O, /*records=*/2);
    auto events = run.recorder.snapshot();
    EXPECT_TRUE(sawKind(events, EventKind::SnicBroadcastInv));
    EXPECT_TRUE(sawKind(events, EventKind::FollowerEnqueued));
    EXPECT_TRUE(sawKind(events, EventKind::FifoDepth));
}

TEST(TraceIntegration, SendRecordsAreMessageCategoryOnBothEngines)
{
    using net::MsgType;
    // ACK and VAL records carry the wire's own net::MsgType, so a
    // rendered record spells it as every other part of the program.
    for (MsgType t : {MsgType::ACK, MsgType::ACK_C, MsgType::ACK_P,
                      MsgType::ACK_C_SC, MsgType::ACK_P_SC})
        for (std::int32_t sender : {0, 63}) {
            EXPECT_EQ(ackType(ackAux(t, sender)), t);
            EXPECT_EQ(ackSender(ackAux(t, sender)), sender);
        }
    const auto named = [](const Record &rec, MsgType t) {
        const std::string line = renderRecord(rec);
        return line.find(": " + std::string(net::msgTypeName(t)) + " ") !=
               std::string::npos;
    };
    EXPECT_TRUE(named(Record{10, 4, 7, 0, Category::Protocol,
                             EventKind::AckReceived,
                             ackAux(MsgType::ACK_C_SC, 2)},
                      MsgType::ACK_C_SC));
    EXPECT_TRUE(named(Record{10, 4, 0, 0, Category::Message,
                             EventKind::ValSent,
                             valAux(MsgType::VAL_P_SC)},
                      MsgType::VAL_P_SC));

    // DdpCore::makeInv/makeVal lay the send records for both engines,
    // so --trace-categories=message keeps every INV and VAL fan-out,
    // [VAL_P]sc included.
    for (Engine e : {Engine::B, Engine::O}) {
        TraceRun run = traceRun(e, 8, PersistModel::Scope);
        SCOPED_TRACE(engineName(e));
        bool saw_val_p_sc = false;
        for (const auto &e : run.recorder.snapshot()) {
            if (e.kind == EventKind::AckReceived) {
                EXPECT_TRUE(named(e, ackType(e.aux))) << renderRecord(e);
            }
            if (e.kind != EventKind::InvFanout &&
                e.kind != EventKind::ValSent)
                continue;
            EXPECT_EQ(e.category, Category::Message);
            if (e.kind == EventKind::ValSent) {
                EXPECT_TRUE(named(e, valType(e.aux))) << renderRecord(e);
            }
            saw_val_p_sc |= e.kind == EventKind::ValSent &&
                            valType(e.aux) == MsgType::VAL_P_SC;
        }
        EXPECT_TRUE(saw_val_p_sc);
    }
}

TEST(TraceIntegration, EveryWritePhaseIsSpannedOnBothEngines)
{
    for (Engine e : {Engine::B, Engine::O}) {
        TraceRun run = traceRun(e);
        SCOPED_TRACE(engineName(e));

        bool begun[numPhases] = {};
        bool ended[numPhases] = {};
        for (const auto &e : run.recorder.snapshot()) {
            if (e.category != Category::Phase)
                continue;
            ASSERT_GE(e.a0, 0);
            ASSERT_LT(e.a0, numPhases);
            if (e.kind == EventKind::SpanBegin)
                begun[e.a0] = true;
            else if (e.kind == EventKind::SpanEnd)
                ended[e.a0] = true;
        }
        for (int p = 0; p < numPhases; ++p) {
            EXPECT_TRUE(begun[p])
                << "no SpanBegin for phase "
                << phaseName(static_cast<Phase>(p));
            EXPECT_TRUE(ended[p])
                << "no SpanEnd for phase "
                << phaseName(static_cast<Phase>(p));
        }

        // The aggregated per-phase series are populated too, and
        // coordinator phases have one sample per coordinated write.
        EXPECT_FALSE(run.phases.empty());
        for (Phase p : {Phase::LockWait, Phase::InvFanout,
                        Phase::Persist, Phase::Val})
            EXPECT_GT(run.phases.series(p).count(), 0u)
                << phaseName(p);
        EXPECT_EQ(run.phases.series(Phase::LockWait).count(),
                  run.phases.series(Phase::Val).count());
    }
}

TEST(TraceIntegration, PhaseStatsAloneWorkWithoutRecorder)
{
    // --phases without --trace-out: cfg.phases set, cfg.trace null.
    WritePhaseStats phases;
    RunSpec spec{.engine = Engine::B};
    spec.cfg.numNodes = 3;
    spec.cfg.numRecords = 8;
    spec.cfg.phases = &phases;
    spec.dc = smallDriver(spec.cfg, 1.0);
    run(spec);
    EXPECT_FALSE(phases.empty());
    EXPECT_FALSE(phases.table().empty());
}

TEST(TraceIntegration, DetachedRecorderDoesNotPerturbResults)
{
    // Identical config and seed, once bare and once fully instrumented:
    // the simulated-time results must match exactly.
    auto bare = [] {
        RunSpec spec{.engine = Engine::B};
        spec.cfg.numNodes = 3;
        spec.cfg.numRecords = 8;
        EXPECT_EQ(spec.cfg.trace, nullptr);
        EXPECT_EQ(spec.cfg.phases, nullptr);
        spec.dc = smallDriver(spec.cfg, 1.0);
        return run(spec).result;
    }();
    TraceRun traced = traceRun(Engine::B);

    EXPECT_EQ(bare.writes, traced.result.writes);
    EXPECT_EQ(bare.reads, traced.result.reads);
    EXPECT_EQ(bare.duration, traced.result.duration);
    ASSERT_EQ(bare.writeLat.count(), traced.result.writeLat.count());
    EXPECT_EQ(bare.writeLat.samples(), traced.result.writeLat.samples());
}

/** Counts the InvObsolete records a recorder hands its sinks. */
struct ObsoleteRecordCounter : RecordSink
{
    std::uint64_t records = 0;

    void
    onRecord(const Record &rec) override
    {
        records += rec.kind == EventKind::InvObsolete;
    }
};

TEST(TraceIntegration, EveryObsoleteCutLaysARecordOnBothEngines)
{
    // A follower's INV and a coordinator's own write cut short as
    // obsolete are both counted and traced by DdpCore::countObsolete.
    for (Engine e : {Engine::B, Engine::O}) {
        for (std::uint64_t seed : {1, 2, 3}) {
            SCOPED_TRACE(std::string(engineName(e)) + " seed " +
                         std::to_string(seed));
            FlightRecorder recorder{1 << 10};
            ObsoleteRecordCounter sink;
            recorder.addSink(&sink);
            RunSpec spec{.engine = e};
            spec.cfg.numNodes = 3;
            spec.cfg.numRecords = 4;
            spec.cfg.trace = &recorder;
            spec.dc = smallDriver(spec.cfg, 0.9);
            spec.dc.requestsPerNode = 400;
            spec.dc.workersPerNode = 5;
            spec.dc.ycsb.seed = seed;
            const NodeCounters total = run(spec).counters;
            EXPECT_GT(total.writesObsoleteCut, 0u);
            EXPECT_EQ(sink.records,
                      total.invsObsolete + total.writesObsoleteCut);
        }
    }
}

/** Replays every PersistDone record under the durability rule of
 *  nvm::DurableRecord: per node and key, the first persist enters, then
 *  only a strictly newer TS_WR. */
struct PersistReplay : RecordSink
{
    explicit PersistReplay(int nodes) : durable(nodes) {}

    void
    onRecord(const Record &rec) override
    {
        if (rec.kind != EventKind::PersistDone)
            return;
        const auto key = static_cast<kv::Key>(rec.a0);
        const auto ts =
            kv::Timestamp::unpack(static_cast<std::uint64_t>(rec.a1));
        kv::Timestamp &durable_ts = durable[rec.node][key];
        if (nvm::DurableRecord::supersedes(ts, durable_ts))
            durable_ts = ts;
    }

    std::vector<std::map<kv::Key, kv::Timestamp>> durable;
};

/** One client of the durable-state test: mostly writes to a few keys,
 *  closing a scope every five writes under <Lin, Scope>. */
sim::Process
durableClient(DdpCluster *cluster, kv::NodeId node, int worker,
              ScopeIds *scopes, int ops, std::uint64_t records)
{
    const bool scoped = cluster->model() == PersistModel::Scope;
    net::ScopeId scope = scoped ? scopes->next() : 0;
    std::uint64_t x = 0x9E3779B97F4A7C15ull * (node * 7 + worker + 1);
    int in_scope = 0;
    for (int i = 0; i < ops; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const kv::Key key = (x >> 33) % records;
        if (i % 4 == 3) {
            co_await cluster->clientRead(node, key);
            continue;
        }
        co_await cluster->clientWrite(node, key, x, scope);
        if (scoped && ++in_scope == 5) {
            co_await cluster->persistScope(node, scope);
            scope = scopes->next();
            in_scope = 0;
        }
    }
    if (scoped && in_scope > 0)
        co_await cluster->persistScope(node, scope);
}

class DurableStateTest : public ::testing::TestWithParam<
                             std::tuple<bool /*offload*/, PersistModel>>
{
};

INSTANTIATE_TEST_SUITE_P(
    EnginesModels, DurableStateTest,
    ::testing::Combine(::testing::Bool(), ::testing::ValuesIn(allModels)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "O" : "B") + "_" +
               std::string(shortModelName(std::get<1>(info.param)));
    });

TEST_P(DurableStateTest, DurableDbMatchesPersistReplayMidRun)
{
    // durableDb() is the records plus an overlay of the keys whose
    // durable state differs; stopped at any tick it must equal a replay
    // of every persist so far, and the overlay must empty at quiescence.
    const auto [offload, model] = GetParam();
    constexpr int nodes = 3;
    FlightRecorder recorder{1 << 10};
    PersistReplay replay(nodes);
    recorder.addSink(&replay);
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = nodes;
    cfg.numRecords = 24;
    cfg.trace = &recorder;

    std::vector<ScopeIds> scopes;
    for (int n = 0; n < nodes; ++n)
        scopes.emplace_back(static_cast<kv::NodeId>(n));
    auto run = [&](auto &cluster) {
        for (int n = 0; n < nodes; ++n)
            for (int w = 0; w < 3; ++w)
                sim.spawn(durableClient(&cluster,
                                        static_cast<kv::NodeId>(n), w,
                                        &scopes[n], 150, cfg.numRecords));
        std::size_t checks = 0, lagging_seen = 0;
        auto check = [&] {
            ++checks;
            for (int n = 0; n < nodes; ++n) {
                SCOPED_TRACE("node " + std::to_string(n) + " at " +
                             std::to_string(sim.now()));
                const auto &node = cluster.node(n);
                const nvm::DurableDb db = node.durableDb();
                const auto &want = replay.durable[n];
                ASSERT_EQ(db.size(), want.size());
                for (const auto &[key, ts] : want) {
                    const auto it = db.find(key);
                    ASSERT_NE(it, db.end()) << "key " << key;
                    EXPECT_EQ(it->second.ts, ts) << "key " << key;
                }
                lagging_seen += node.log().lagging();
            }
        };
        for (Tick t = 5 * US; !sim.runUntil(t); t += 5 * US)
            check();
        check();
        EXPECT_GT(checks, 10u);
        // Updates were in flight at some stop, and none is at the end.
        EXPECT_GT(lagging_seen, 0u);
        for (int n = 0; n < nodes; ++n)
            EXPECT_EQ(cluster.node(n).log().lagging(), 0u) << "node " << n;
    };
    const Engine engine = offload ? Engine::O : Engine::B;
    withCluster(sim, engine, cfg, model, optionsFor(engine), run);
}

} // namespace
