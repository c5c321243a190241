/**
 * @file
 * Tests of the observability layer itself: flight-recorder ring
 * semantics, the zero-allocation record path (counted by the shared
 * alloc_hook.hh), the text and Chrome trace-event exporters, the
 * metrics registry's JSON serialization, and metrics determinism across
 * identically-seeded runs of both protocol engines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <string>
#include <vector>

#include "alloc_hook.hh"
#include "kv/timestamp.hh"

#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"
#include "obs/recorder.hh"
#include "simproto/cluster_b.hh"
#include "simproto/driver.hh"
#include "snic/cluster_o.hh"

using namespace minos;
using namespace minos::obs;

namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON syntax checker, enough to prove the
// exporters emit well-formed JSON without an external parser.

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *lit)
    {
        std::size_t n = std::string(lit).size();
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string()
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        std::size_t start = pos_;
        if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+'))
            ++pos_;
        bool digits = false;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '-' || s_[pos_] == '+')) {
            digits |= std::isdigit(static_cast<unsigned char>(s_[pos_]));
            ++pos_;
        }
        return digits && pos_ > start;
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (pos_ >= s_.size())
                return false;
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (pos_ >= s_.size())
                return false;
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
        case '{':
            return object();
        case '[':
            return array();
        case '"':
            return string();
        case 't':
            return literal("true");
        case 'f':
            return literal("false");
        case 'n':
            return literal("null");
        default:
            return number();
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

/** Extract every numeric value of @p key ("ts"/"pid") in order. */
std::vector<double>
numbersFor(const std::string &json, const std::string &key)
{
    std::vector<double> out;
    const std::string needle = "\"" + key + "\":";
    std::size_t pos = 0;
    while ((pos = json.find(needle, pos)) != std::string::npos) {
        pos += needle.size();
        out.push_back(std::strtod(json.c_str() + pos, nullptr));
    }
    return out;
}

// ---------------------------------------------------------------------------
// Flight-recorder ring semantics.

TEST(FlightRecorder, RecordsInOrder)
{
    FlightRecorder rec(16);
    rec.record(10, Category::Protocol, EventKind::InvFanout, 0, 7, 1);
    rec.record(20, Category::Message, EventKind::InvApplied, 1, 7, 1);
    rec.record(30, Category::Lock, EventKind::RdLockReleased, 2, 9, 2);
    auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, EventKind::InvFanout);
    EXPECT_EQ(events[1].kind, EventKind::InvApplied);
    EXPECT_EQ(events[2].kind, EventKind::RdLockReleased);
    EXPECT_EQ(events[2].when, 30);
    EXPECT_EQ(events[2].node, 2);
    EXPECT_EQ(events[2].a0, 9);
}

TEST(FlightRecorder, RingOverwritesOldestAndCountsDropped)
{
    FlightRecorder rec(4);
    for (int i = 0; i < 10; ++i)
        rec.record(i, Category::Protocol, EventKind::InvFanout, 0, i, 0);
    auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().a0, 6); // oldest retained
    EXPECT_EQ(events.back().a0, 9);
    EXPECT_EQ(rec.recorded(), 10u);
    EXPECT_EQ(rec.dropped(), 6u);
}

TEST(FlightRecorder, CategoryFiltering)
{
    FlightRecorder rec(16);
    rec.setEnabled(Category::Message, false);
    rec.record(1, Category::Message, EventKind::InvApplied, 0);
    rec.record(2, Category::Protocol, EventKind::InvFanout, 0);
    auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, EventKind::InvFanout);
    EXPECT_FALSE(rec.enabled(Category::Message));
    EXPECT_TRUE(rec.enabled(Category::Protocol));
    EXPECT_EQ(rec.recorded(), 1u);
}

TEST(FlightRecorder, ClearResets)
{
    FlightRecorder rec(8);
    rec.record(1, Category::Protocol, EventKind::InvFanout, 0);
    rec.clear();
    EXPECT_TRUE(rec.snapshot().empty());
    EXPECT_EQ(rec.recorded(), 0u);
}

TEST(FlightRecorder, SortedSnapshotOrdersRetroactiveSpans)
{
    FlightRecorder rec(16);
    // recordSpan lays SpanBegin retroactively: insertion order is not
    // chronological, the sorted snapshot must be.
    rec.record(50, Category::Protocol, EventKind::InvFanout, 0);
    rec.record(10, Category::Phase, EventKind::SpanBegin, 0, 0, 1);
    rec.record(60, Category::Phase, EventKind::SpanEnd, 0, 0, 1);
    auto sorted = rec.sortedSnapshot();
    ASSERT_EQ(sorted.size(), 3u);
    EXPECT_EQ(sorted[0].when, 10);
    EXPECT_EQ(sorted[1].when, 50);
    EXPECT_EQ(sorted[2].when, 60);
}

TEST(FlightRecorder, RecordPathNeverAllocates)
{
    FlightRecorder rec(64);
    rec.setEnabled(Category::Message, false);
    std::uint64_t before = test::allocCount();
    // Enabled category: POD store into the preallocated ring.
    for (int i = 0; i < 1000; ++i)
        rec.record(i, Category::Protocol, EventKind::InvFanout, 0, i,
                   i);
    // Disabled category: one load + branch.
    for (int i = 0; i < 1000; ++i)
        rec.record(i, Category::Message, EventKind::InvApplied, 0, i,
                   i);
    EXPECT_EQ(test::allocCount(), before)
        << "record() touched the allocator";
    EXPECT_EQ(rec.recorded(), 1000u);
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(TextExport, RendersReadableLines)
{
    FlightRecorder rec(8);
    rec.record(150, Category::Fifo, EventKind::VfifoSkipped, 3, 12,
               static_cast<std::int64_t>(kv::Timestamp{5, 1}.pack()));
    std::string out = rec.str();
    EXPECT_NE(out.find("150ns"), std::string::npos) << out;
    EXPECT_NE(out.find("[fifo]"), std::string::npos) << out;
    EXPECT_NE(out.find("node 3"), std::string::npos) << out;
    EXPECT_NE(out.find("vFIFO skipped"), std::string::npos) << out;
}

TEST(ChromeTrace, RoundTripsThroughJsonChecker)
{
    FlightRecorder rec(64);
    rec.record(2000, Category::Protocol, EventKind::InvFanout, 0, 7, 1);
    rec.record(1000, Category::Phase, EventKind::SpanBegin, 1,
               static_cast<std::int64_t>(Phase::Persist), 42);
    rec.record(3000, Category::Phase, EventKind::SpanEnd, 1,
               static_cast<std::int64_t>(Phase::Persist), 42);
    rec.record(4000, Category::Fifo, EventKind::FifoDepth, -1, 0, 3);

    std::string json = chromeTraceJson(rec);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

    // Tick-ordered: the ts sequence of the non-metadata events is
    // non-decreasing even though SpanBegin was recorded out of order.
    auto ts = numbersFor(json, "ts");
    ASSERT_GE(ts.size(), 4u);
    for (std::size_t i = 1; i < ts.size(); ++i)
        EXPECT_LE(ts[i - 1], ts[i]) << json;

    // Node tracks: pid 0 and 1 for the nodes, the global track for
    // node -1, and a process_name metadata event per track.
    auto pids = numbersFor(json, "pid");
    EXPECT_NE(std::find(pids.begin(), pids.end(), 0.0), pids.end());
    EXPECT_NE(std::find(pids.begin(), pids.end(), 1.0), pids.end());
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("\"global\""), std::string::npos);
    EXPECT_NE(json.find("\"node 1\""), std::string::npos);

    // Spans become async begin/end pairs carrying the txn token as id.
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(json.find("\"id\":42"), std::string::npos);
    EXPECT_NE(json.find("\"persist\""), std::string::npos);
}

TEST(ChromeTrace, EmptyRecorderIsStillValidJson)
{
    FlightRecorder rec(4);
    std::string json = chromeTraceJson(rec);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(MetricsRegistry, SerializesAllThreeKinds)
{
    MetricsRegistry reg;
    EXPECT_TRUE(reg.empty());
    reg.counter("proto.invs_sent", 123);
    reg.gauge("run.tput", 2.5);
    stats::LatencySeries lat;
    lat.add(100);
    lat.add(300);
    reg.histogram("run.write_lat_ns", lat);
    EXPECT_FALSE(reg.empty());

    std::string json = reg.json();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"proto.invs_sent\":123"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"run.tput\":2.5"), std::string::npos) << json;
    EXPECT_NE(json.find("\"run.write_lat_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
    EXPECT_NE(json.find("\"mean\":200"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p50\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p95\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p99\":300"), std::string::npos) << json;

    reg.clear();
    EXPECT_TRUE(reg.empty());
}

TEST(MetricsRegistry, JsonEscapesNames)
{
    MetricsRegistry reg;
    reg.counter("weird\"name\\with\ncontrol", 1);
    std::string json = reg.json();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("weird\\\"name\\\\with\\n"), std::string::npos)
        << json;
}

TEST(MetricsRegistry, PhaseStatsRegisterAsHistograms)
{
    WritePhaseStats phases;
    phases.add(Phase::LockWait, 100);
    phases.add(Phase::Val, 50);
    MetricsRegistry reg;
    phases.registerInto(reg, "run.");
    std::string json = reg.json();
    EXPECT_NE(json.find("\"run.phase.lock-wait.ns\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"run.phase.val.ns\""), std::string::npos);
    // Empty phases are not published.
    EXPECT_EQ(json.find("\"run.phase.persist.ns\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism: two identically-seeded runs serialize byte-identically.

std::string
runToMetricsJson(bool offload)
{
    simproto::ClusterConfig cfg;
    cfg.numNodes = 3;
    cfg.numRecords = 64;

    simproto::DriverConfig dc;
    dc.requestsPerNode = 80;
    dc.workersPerNode = 2;
    dc.ycsb.numRecords = cfg.numRecords;
    dc.ycsb.writeFraction = 0.5;
    dc.ycsb.seed = 7;

    obs::WritePhaseStats phases;
    cfg.phases = &phases;

    sim::Simulator sim;
    simproto::RunResult res;
    simproto::NodeCounters aggregate;
    if (offload) {
        snic::ClusterO cluster(sim, cfg,
                               simproto::PersistModel::Synch);
        res = simproto::runWorkload(sim, cluster, dc);
        for (int n = 0; n < cfg.numNodes; ++n)
            aggregate += cluster.node(n).counters();
    } else {
        simproto::ClusterB cluster(sim, cfg,
                                   simproto::PersistModel::Synch);
        res = simproto::runWorkload(sim, cluster, dc);
        for (int n = 0; n < cfg.numNodes; ++n)
            aggregate += cluster.node(n).counters();
    }

    MetricsRegistry reg;
    simproto::registerRunMetrics(reg, "run.", res);
    aggregate.registerInto(reg, "proto.");
    phases.registerInto(reg, "run.");
    return reg.json();
}

TEST(Determinism, IdenticalSeedsYieldByteIdenticalMetricsJsonB)
{
    std::string a = runToMetricsJson(/*offload=*/false);
    std::string b = runToMetricsJson(/*offload=*/false);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Determinism, IdenticalSeedsYieldByteIdenticalMetricsJsonO)
{
    std::string a = runToMetricsJson(/*offload=*/true);
    std::string b = runToMetricsJson(/*offload=*/true);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

} // namespace
