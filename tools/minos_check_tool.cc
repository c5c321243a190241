/**
 * @file
 * minos_check_tool — model-check a DDP protocol configuration from the
 * command line (paper §VI / Table I).
 *
 * Usage:
 *   minos_check_tool [--model=synch|strict|renf|event|scope]
 *                    [--nodes=N] [--writers=0,1,...]
 *                    [--no-scope-persist] [--max-states=N]
 *                    [--bug=release-early|ack-before-persist|skip-spin]
 *
 * Exit status: 0 when the whole space was explored without a
 * violation, 1 on a violation, 3 when the --max-states budget ran out
 * first (inconclusive), 2 on an unknown flag or a bad flag value.
 */

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "check/checker.hh"
#include "common/flags.hh"

using namespace minos;
using namespace minos::check;

namespace {

/** Report a bad flag value and exit 2. */
[[noreturn]] void
badFlag(const std::string &msg)
{
    std::fprintf(stderr, "minos-check: %s\n", msg.c_str());
    std::exit(2);
}

/** @p text as an integer in [lo, hi]; any other text is a bad flag. */
long long
parseInt(const std::string &flag, const std::string &text, long long lo,
         long long hi)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno == ERANGE || v < lo ||
        v > hi)
        badFlag("--" + flag + " expects an integer in [" +
                std::to_string(lo) + ", " + std::to_string(hi) +
                "], got '" + text + "'");
    return v;
}

PersistModel
parseModel(const std::string &name)
{
    for (PersistModel m : simproto::allModels) {
        std::string s(simproto::shortModelName(m));
        for (auto &c : s)
            c = static_cast<char>(std::tolower(c));
        if (s == name)
            return m;
    }
    badFlag("unknown --model '" + name + "'");
}

/** Comma-separated coordinator ids, each a node in [0, nodes). */
std::vector<int>
parseWriters(const std::string &spec, int nodes)
{
    std::vector<int> writers;
    for (std::size_t start = 0;;) {
        const std::size_t comma = spec.find(',', start);
        writers.push_back(static_cast<int>(parseInt(
            "writers", spec.substr(start, comma - start), 0, nodes - 1)));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (writers.size() > static_cast<std::size_t>(maxWrites))
        badFlag("--writers takes at most " + std::to_string(maxWrites) +
                " writes");
    return writers;
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags(argc, argv);
    auto unknown = flags.unknownFlags({"model", "nodes", "writers",
                                       "no-scope-persist", "max-states",
                                       "bug", "help"});
    if (!unknown.empty() || flags.has("help")) {
        for (const auto &f : unknown)
            std::fprintf(stderr, "unknown flag --%s\n", f.c_str());
        std::printf("usage: %s [--model=M] [--nodes=N] "
                    "[--writers=0,1] [--no-scope-persist] "
                    "[--max-states=N] [--bug=...]\n",
                    argv[0]);
        return unknown.empty() ? 0 : 2;
    }

    CheckConfig cfg;
    cfg.model = parseModel(flags.getString("model", "synch"));
    cfg.numNodes = static_cast<int>(
        parseInt("nodes", flags.getString("nodes", "3"), 2, maxNodes));
    cfg.writers =
        parseWriters(flags.getString("writers", "0,1"), cfg.numNodes);
    cfg.scopePersist = !flags.getBool("no-scope-persist");
    cfg.maxStates = static_cast<std::size_t>(
        parseInt("max-states", flags.getString("max-states", "4000000"),
                 1, std::numeric_limits<std::uint32_t>::max() - 1LL));

    const std::string bug = flags.getString("bug", "");
    if (bug == "release-early")
        cfg.bugReleaseRdLockEarly = true;
    else if (bug == "ack-before-persist")
        cfg.bugAckBeforePersist = true;
    else if (bug == "skip-spin")
        cfg.bugSkipConsistencySpin = true;
    else if (!bug.empty())
        badFlag("unknown --bug '" + bug + "'");
    // Counterexample traces for the buggy configs. They cost 12 B per
    // state: the violation cap stops only the invariant checks, and BFS
    // still explores (and records) the whole space.
    cfg.recordTraces = !bug.empty();

    std::printf("checking %s, %d nodes, %zu writer(s)%s...\n",
                std::string(simproto::modelName(cfg.model)).c_str(),
                cfg.numNodes, cfg.writers.size(),
                bug.empty() ? "" : (" [bug: " + bug + "]").c_str());

    CheckResult res = checkModel(cfg);
    std::printf("states explored : %zu\n", res.statesExplored);
    std::printf("transitions     : %zu\n", res.transitions);
    std::printf("final states    : %zu\n", res.finalStates);
    std::printf("violations      : %zu\n", res.violations.size());
    std::printf("fingerprint collision bound : %.3g\n",
                fingerprintCollisionBound(res.statesExplored));
    if (res.inconclusive)
        std::printf("result          : inconclusive (state budget of %zu "
                    "exhausted)\n",
                    cfg.maxStates);
    for (const auto &v : res.violations) {
        std::printf("  %s\n    %s\n", v.invariant.c_str(),
                    v.detail.c_str());
        if (!v.trace.empty()) {
            std::printf("    counterexample:");
            for (const auto &a : v.trace)
                std::printf(" %s", a.c_str());
            std::printf("\n");
        }
    }
    if (!res.violations.empty())
        return 1;
    return res.inconclusive ? 3 : 0;
}
