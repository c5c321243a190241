/**
 * @file
 * Unit tests for the measurement helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

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

namespace {

/** The full sample vector LatencySeries summarizes, with the statistics
 *  defined over it. */
struct SortedReference
{
    std::vector<Tick> samples;

    Tick
    percentile(double p)
    {
        std::sort(samples.begin(), samples.end());
        auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(samples.size())));
        if (rank > 0)
            --rank;
        return samples[std::min(rank, samples.size() - 1)];
    }

    double
    mean() const
    {
        return std::accumulate(samples.begin(), samples.end(), 0.0) /
               static_cast<double>(samples.size());
    }

    std::uint64_t
    digest()
    {
        std::sort(samples.begin(), samples.end());
        std::uint64_t h = 1469598103934665603ull;
        auto mix = [&h](std::uint64_t v) {
            for (int i = 0; i < 8; ++i) {
                h ^= (v >> (8 * i)) & 0xff;
                h *= 1099511628211ull;
            }
        };
        mix(samples.size());
        for (Tick s : samples)
            mix(static_cast<std::uint64_t>(s));
        return h;
    }
};

void
expectMatches(const LatencySeries &s, SortedReference ref)
{
    ASSERT_EQ(s.count(), ref.samples.size());
    EXPECT_EQ(s.mean(), ref.mean());
    EXPECT_EQ(s.min(), *std::min_element(ref.samples.begin(),
                                         ref.samples.end()));
    EXPECT_EQ(s.max(), *std::max_element(ref.samples.begin(),
                                         ref.samples.end()));
    for (double p : {0.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_EQ(s.percentile(p), ref.percentile(p)) << "p" << p;
    EXPECT_EQ(s.digest(), ref.digest());
}

} // namespace

TEST(LatencySeries, HistogramMatchesSortedSamples)
{
    // Random (few values and wide), all-equal (more than one run word
    // can count) and all-distinct inputs, queried midway and at the end.
    std::mt19937_64 rng(7);
    auto few = [&](int) { return static_cast<Tick>(1000 + rng() % 40); };
    auto wide = [&](int) {
        return static_cast<Tick>(rng() % 10'000'000) - 5000;
    };
    auto equal = [](int) { return Tick{4242}; };
    auto distinct = [](int i) { return Tick{i} * 7919 % 150'001; };
    const std::vector<std::pair<const char *, std::function<Tick(int)>>>
        inputs = {{"few", few},
                  {"wide", wide},
                  {"equal", equal},
                  {"distinct", distinct}};
    for (const auto &[name, draw] : inputs) {
        SCOPED_TRACE(name);
        LatencySeries s;
        SortedReference ref;
        for (int i = 0; i < 150'000; ++i) {
            Tick t = draw(i);
            s.add(t);
            ref.samples.push_back(t);
            if (i == 777 || i == 40'000)
                expectMatches(s, ref);
        }
        expectMatches(s, ref);
        // Never more memory than the sample vector it replaces.
        std::vector<Tick> plain;
        for (Tick t : ref.samples)
            plain.push_back(t);
        EXPECT_LE(s.footprintBytes(), plain.capacity() * sizeof(Tick));
        if (std::string(name) != "distinct" &&
            std::string(name) != "wide") {
            EXPECT_LT(s.footprintBytes(), 64u * 1024);
        }
    }
}

TEST(LatencySeries, InterleavedRepeatsFoldInTheSuffix)
{
    // A cycle of 40 values never repeats back to back. Each repeat still
    // folds into its value's unsorted word, so the suffix holds one word
    // per value and never fills (a word per sample would compact every
    // 512 samples and keep at least that many words).
    LatencySeries s;
    SortedReference ref;
    for (int i = 0; i < 100'000; ++i) {
        Tick t = 6000 + Tick{i} * 17 % 40;
        s.add(t);
        ref.samples.push_back(t);
        if (i == 999)
            expectMatches(s, ref); // sorts the 40 values into runs
    }
    expectMatches(s, ref);
    EXPECT_LE(s.footprintBytes(), 128 * sizeof(std::uint64_t));
}

TEST(LatencySeries, MergeMatchesSortedSamples)
{
    std::mt19937_64 rng(11);
    LatencySeries a, b;
    SortedReference ref;
    for (int i = 0; i < 5000; ++i) {
        Tick t = static_cast<Tick>(rng() % 300);
        (i % 3 ? a : b).add(t);
        ref.samples.push_back(t);
    }
    b.p50(); // b compacted, a not: both forms merge
    a.merge(b);
    expectMatches(a, ref);
    LatencySeries empty;
    a.merge(empty);
    expectMatches(a, ref);
}

TEST(LatencySeries, KeepOrderKeepsArrivalOrder)
{
    LatencySeries s, t;
    s.keepOrder();
    t.keepOrder();
    std::vector<Tick> arrived;
    for (Tick v : {5, 3, 9, 3, 1}) {
        s.add(v);
        arrived.push_back(v);
    }
    EXPECT_EQ(s.p50(), 3); // a query does not reorder samples()
    EXPECT_EQ(s.samples(), arrived);
    t.add(7);
    s.merge(t);
    arrived.push_back(7);
    EXPECT_EQ(s.samples(), arrived);
    EXPECT_EQ(s.count(), 6u);
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
