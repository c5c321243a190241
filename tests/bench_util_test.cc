/**
 * @file
 * Tests of the figure driver (bench/bench_util.hh): the MINOS_BENCH_REQS
 * request-count override, the command line, and the point lists (none
 * of these tests runs a simulation).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>

#include "bench_util.hh"

using minos::bench::benchRequestsPerNode;
using minos::bench::figures;
using minos::bench::parseFigures;

TEST(BenchRequests, UnsetKeepsTheDefault)
{
    ::unsetenv("MINOS_BENCH_REQS");
    EXPECT_EQ(benchRequestsPerNode(), 1000u);
    EXPECT_EQ(benchRequestsPerNode(7), 7u);
}

TEST(BenchRequests, PositiveIntegerOverrides)
{
    ::setenv("MINOS_BENCH_REQS", "250", 1);
    EXPECT_EQ(benchRequestsPerNode(), 250u);
    ::unsetenv("MINOS_BENCH_REQS");
}

TEST(BenchRequestsDeathTest, MalformedValueIsFatal)
{
    // Each of these used to run 0 (or a truncated count of) requests.
    for (const char *bad : {"abc", "12x", "0", "-5", " 5", ""}) {
        SCOPED_TRACE(bad);
        EXPECT_EXIT(
            {
                ::setenv("MINOS_BENCH_REQS", bad, 1);
                benchRequestsPerNode();
            },
            ::testing::ExitedWithCode(1), "MINOS_BENCH_REQS");
    }
}

TEST(FiguresArgsDeathTest, NoOrUnknownNameExitsTwoWithUsage)
{
    char prog[] = "figures";
    char fig09[] = "fig09";
    char ycsb[] = "ycsb";
    char bad[] = "nosuch";
    const char *usage = "usage: figures <name>... \\(names: fig04 fig09 "
                        "fig10 fig11 fig12 fig13 fig14 leader ycsb;";

    char *good[] = {prog, ycsb, fig09, nullptr};
    auto picked = parseFigures(3, good);
    ASSERT_EQ(picked.size(), 2u);
    EXPECT_STREQ(picked[0]->name, "ycsb");
    EXPECT_STREQ(picked[1]->name, "fig09");

    char *none[] = {prog, nullptr};
    EXPECT_EXIT(parseFigures(1, none), ::testing::ExitedWithCode(2), usage);
    char *unknown[] = {prog, fig09, bad, nullptr};
    EXPECT_EXIT(parseFigures(3, unknown), ::testing::ExitedWithCode(2),
                usage);
}

TEST(FigurePoints, CountsAndUniqueKeys)
{
    const std::map<std::string, std::size_t> expected = {
        {"fig04", 5},  {"fig09", 50}, {"fig10", 50},
        {"fig11", 20}, {"fig12", 7},  {"fig13", 7},
        {"fig14", 18}, {"leader", 8}, {"ycsb", 8},
    };
    std::set<std::string> keys;
    std::size_t total = 0;
    for (const auto &fig : figures) {
        SCOPED_TRACE(fig.name);
        auto points = fig.points();
        ASSERT_TRUE(expected.count(fig.name));
        EXPECT_EQ(points.size(), expected.at(fig.name));
        for (const auto &p : points) {
            // The key is the metrics prefix: it starts with the blob's
            // name, and no two points share one.
            EXPECT_EQ(p.key.rfind(std::string(fig.name) + ".", 0), 0u)
                << p.key;
            EXPECT_TRUE(keys.insert(p.key).second) << p.key;
        }
        total += points.size();
    }
    EXPECT_EQ(total, 173u);
    EXPECT_EQ(keys.size(), 173u);
    EXPECT_EQ(std::size(figures), expected.size());
}
