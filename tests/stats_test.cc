/**
 * @file
 * Unit tests for the measurement helpers.
 */

#include <gtest/gtest.h>

#include "stats/stats.hh"

using namespace minos;
using namespace minos::stats;

TEST(LatencySeries, EmptySeriesIsZero)
{
    LatencySeries s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.p50(), 0);
    EXPECT_EQ(s.min(), 0);
    EXPECT_EQ(s.max(), 0);
}

TEST(LatencySeries, MeanMinMax)
{
    LatencySeries s;
    for (Tick t : {10, 20, 30, 40})
        s.add(t);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 25.0);
    EXPECT_EQ(s.min(), 10);
    EXPECT_EQ(s.max(), 40);
}

TEST(LatencySeries, Percentiles)
{
    LatencySeries s;
    for (Tick t = 1; t <= 100; ++t)
        s.add(101 - t); // insert descending to exercise the lazy sort
    EXPECT_EQ(s.p50(), 50);
    EXPECT_EQ(s.p99(), 99);
    EXPECT_EQ(s.percentile(100.0), 100);
    EXPECT_EQ(s.percentile(1.0), 1);
}

TEST(LatencySeries, MergeCombinesSamples)
{
    LatencySeries a, b;
    a.add(1);
    a.add(2);
    b.add(3);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Throughput, OpsPerSec)
{
    // 1000 ops in 1 ms of simulated time = 1M ops/s.
    EXPECT_DOUBLE_EQ(opsPerSec(1000, MS), 1e6);
    EXPECT_DOUBLE_EQ(opsPerSec(5, 0), 0.0);
}

TEST(Breakdown, Accumulates)
{
    Breakdown b;
    b.add(60.0, 40.0);
    b.add(80.0, 20.0);
    EXPECT_EQ(b.count, 2u);
    EXPECT_DOUBLE_EQ(b.meanComm(), 70.0);
    EXPECT_DOUBLE_EQ(b.meanComp(), 30.0);
    EXPECT_DOUBLE_EQ(b.meanTotal(), 100.0);
    EXPECT_DOUBLE_EQ(b.commFraction(), 0.7);
}

TEST(Breakdown, EmptyFractionIsZero)
{
    Breakdown b;
    EXPECT_DOUBLE_EQ(b.commFraction(), 0.0);
    EXPECT_DOUBLE_EQ(b.meanTotal(), 0.0);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"model", "latency"});
    t.addRow({"<Lin,Synch>", "12.5"});
    t.addRow({"<Lin,Event>", "7"});
    std::string out = t.str();
    EXPECT_NE(out.find("model"), std::string::npos);
    EXPECT_NE(out.find("<Lin,Synch>"), std::string::npos);
    EXPECT_NE(out.find("12.5"), std::string::npos);
    // Header separator exists.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, FmtFixedPoint)
{
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::fmt(2.0, 0), "2");
}
