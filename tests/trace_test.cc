/**
 * @file
 * Integration tests of the flight recorder and phase spans with both
 * protocol engines: typed protocol/lock/FIFO events show up where the
 * protocol says they must, every write phase is spanned, and a detached
 * recorder leaves the simulated results bit-identical (the observability
 * layer observes, it does not perturb).
 */

#include <gtest/gtest.h>

#include "obs/phase.hh"
#include "obs/recorder.hh"
#include "simproto/cluster_b.hh"
#include "simproto/driver.hh"
#include "snic/cluster_o.hh"

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
    return dc;
}

TraceRun
runB(int records = 8, PersistModel model = PersistModel::Synch)
{
    TraceRun run;
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 3;
    cfg.numRecords = static_cast<std::uint64_t>(records);
    cfg.trace = &run.recorder;
    cfg.phases = &run.phases;
    ClusterB cluster(sim, cfg, model);
    run.result = runWorkload(sim, cluster, smallDriver(cfg, 1.0));
    return run;
}

TraceRun
runO(int records = 8, PersistModel model = PersistModel::Synch)
{
    TraceRun run;
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 3;
    cfg.numRecords = static_cast<std::uint64_t>(records);
    cfg.trace = &run.recorder;
    cfg.phases = &run.phases;
    snic::ClusterO cluster(sim, cfg, model);
    run.result = runWorkload(sim, cluster, smallDriver(cfg, 1.0));
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
    TraceRun run = runB();
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
    TraceRun run = runO(/*records=*/2); // conflicts -> vFIFO skips
    auto events = run.recorder.snapshot();
    EXPECT_TRUE(sawKind(events, EventKind::SnicBroadcastInv));
    EXPECT_TRUE(sawKind(events, EventKind::FollowerEnqueued));
    EXPECT_TRUE(sawKind(events, EventKind::FifoDepth));
}

TEST(TraceIntegration, SendRecordsAreMessageCategoryOnBothEngines)
{
    // DdpCore::makeInv/makeVal lay the send records for both engines,
    // so --trace-categories=message keeps every INV and VAL fan-out,
    // [VAL_P]sc included.
    for (bool offload : {false, true}) {
        TraceRun run = offload ? runO(8, PersistModel::Scope)
                               : runB(8, PersistModel::Scope);
        SCOPED_TRACE(offload ? "MINOS-O" : "MINOS-B");
        bool saw_val_p_sc = false;
        for (const auto &e : run.recorder.snapshot()) {
            if (e.kind != EventKind::InvFanout &&
                e.kind != EventKind::ValSent)
                continue;
            EXPECT_EQ(e.category, Category::Message);
            saw_val_p_sc |= e.kind == EventKind::ValSent &&
                            e.aux == static_cast<std::uint16_t>(
                                         ValFlavor::ValPSc);
        }
        EXPECT_TRUE(saw_val_p_sc);
    }
}

TEST(TraceIntegration, EveryWritePhaseIsSpannedOnBothEngines)
{
    for (bool offload : {false, true}) {
        TraceRun run = offload ? runO() : runB();
        SCOPED_TRACE(offload ? "MINOS-O" : "MINOS-B");

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
    sim::Simulator sim;
    ClusterConfig cfg;
    cfg.numNodes = 3;
    cfg.numRecords = 8;
    WritePhaseStats phases;
    cfg.phases = &phases;
    ClusterB cluster(sim, cfg, PersistModel::Synch);
    runWorkload(sim, cluster, smallDriver(cfg, 1.0));
    EXPECT_FALSE(phases.empty());
    EXPECT_FALSE(phases.table().empty());
}

TEST(TraceIntegration, DetachedRecorderDoesNotPerturbResults)
{
    // Identical config and seed, once bare and once fully instrumented:
    // the simulated-time results must match exactly.
    auto bare = [] {
        sim::Simulator sim;
        ClusterConfig cfg;
        cfg.numNodes = 3;
        cfg.numRecords = 8;
        EXPECT_EQ(cfg.trace, nullptr);
        EXPECT_EQ(cfg.phases, nullptr);
        ClusterB cluster(sim, cfg, PersistModel::Synch);
        return runWorkload(sim, cluster, smallDriver(cfg, 1.0));
    }();
    TraceRun traced = runB();

    EXPECT_EQ(bare.writes, traced.result.writes);
    EXPECT_EQ(bare.reads, traced.result.reads);
    EXPECT_EQ(bare.duration, traced.result.duration);
    ASSERT_EQ(bare.writeLat.count(), traced.result.writeLat.count());
    EXPECT_EQ(bare.writeLat.samples(), traced.result.writeLat.samples());
}

} // namespace
