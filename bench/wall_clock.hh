/**
 * @file
 * The timing loop of the wall-clock benches (tables_micro,
 * threaded_runtime): a case runs in doubling batches until it has run
 * for at least minTime, then prints its mean wall-clock cost per
 * operation.
 */

#ifndef MINOS_BENCH_WALL_CLOCK_HH
#define MINOS_BENCH_WALL_CLOCK_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace minos::bench {

/** The least wall time one case runs for. */
inline constexpr std::chrono::duration<double> minTime{0.2};

/** The unit a case's cost per operation is printed in. */
enum class Unit
{
    Ns,
    Us,
};

/** Keep @p value live, so a loop computing it is not optimised out. */
template <typename T>
inline void
doNotOptimize(const T &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

/**
 * Run @p op in doubling batches until minTime has passed, then print
 * "<name>  <cost> <unit>/op  <n> ops".
 */
template <typename Op>
void
timeOps(const char *name, Unit unit, Op &&op)
{
    using Clock = std::chrono::steady_clock;
    std::uint64_t ops = 0;
    std::chrono::duration<double> spent{0};
    for (std::uint64_t batch = 1; spent < minTime; batch *= 2) {
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < batch; ++i)
            op();
        spent += Clock::now() - start;
        ops += batch;
    }
    const double per_op = spent.count() / static_cast<double>(ops) *
                          (unit == Unit::Ns ? 1e9 : 1e6);
    std::printf("%-32s %10.3f %s/op %12llu ops\n", name, per_op,
                unit == Unit::Ns ? "ns" : "us",
                static_cast<unsigned long long>(ops));
    std::fflush(stdout);
}

/** The wall-clock benches take no arguments: any prints a usage line
 *  and exits 2. */
inline void
rejectArguments(int argc, char **argv)
{
    if (argc > 1) {
        std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
        std::exit(2);
    }
}

} // namespace minos::bench

#endif // MINOS_BENCH_WALL_CLOCK_HH
