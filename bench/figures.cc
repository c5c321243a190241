/**
 * @file
 * `figures <name>...`: run the named simulated figures (fig04, fig09-14,
 * leader, ycsb; see bench_util.hh) and print each one's timing lines and
 * MINOS_METRICS blob. Render the tables with
 * `figures <name>... | python3 tools/experiments.py`.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    for (const auto *fig : minos::bench::parseFigures(argc, argv))
        minos::bench::runFigure(*fig);
    return 0;
}
