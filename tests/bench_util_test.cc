/**
 * @file
 * Tests of the figure benches' shared helpers (bench/bench_util.hh):
 * the MINOS_BENCH_REQS request-count override.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "bench_util.hh"

using minos::bench::benchRequestsPerNode;

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
