/**
 * @file
 * Model-checking tests (paper §VI, Table I): exhaustive exploration of
 * the abstract protocol model for every <Lin, P> combination, plus
 * checker self-validation through deliberately buggy protocol variants.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "alloc_hook.hh"
#include "check/checker.hh"
#include "check/fingerprint_set.hh"
#include "check/state.hh"

using namespace minos;
using namespace minos::check;
using simproto::PersistModel;

namespace {

std::string
report(const CheckResult &res)
{
    std::string out;
    for (const auto &v : res.violations)
        out += v.invariant + ": " + v.detail + "\n";
    return out;
}

/** splitmix64: distinct inputs give distinct, well-spread outputs. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

class CheckModelTest : public ::testing::TestWithParam<PersistModel>
{
};

INSTANTIATE_TEST_SUITE_P(AllModels, CheckModelTest,
                         ::testing::ValuesIn(simproto::allModels),
                         [](const auto &info) {
                             return std::string(
                                 simproto::shortModelName(info.param));
                         });

TEST_P(CheckModelTest, SingleWriteThreeNodes)
{
    CheckConfig cfg;
    cfg.model = GetParam();
    cfg.numNodes = 3;
    cfg.writers = {0};
    CheckResult res = checkModel(cfg);
    EXPECT_TRUE(res.ok()) << report(res);
    EXPECT_GT(res.statesExplored, 10u);
    EXPECT_GT(res.finalStates, 0u);
}

TEST_P(CheckModelTest, TwoConflictingWritersThreeNodes)
{
    // Two concurrent writes to the same record from different nodes:
    // exercises snatching, obsoleteness, and both spin primitives under
    // every possible interleaving and message reordering.
    CheckConfig cfg;
    cfg.model = GetParam();
    cfg.numNodes = 3;
    cfg.writers = {0, 1};
    CheckResult res = checkModel(cfg);
    EXPECT_TRUE(res.ok()) << report(res);
    EXPECT_GT(res.statesExplored, 1000u);
    EXPECT_GT(res.finalStates, 0u);
}

TEST_P(CheckModelTest, TwoWritesSameCoordinator)
{
    CheckConfig cfg;
    cfg.model = GetParam();
    cfg.numNodes = 3;
    cfg.writers = {0, 0};
    CheckResult res = checkModel(cfg);
    EXPECT_TRUE(res.ok()) << report(res);
}

TEST_P(CheckModelTest, ThreeWritersTwoNodes)
{
    CheckConfig cfg;
    cfg.model = GetParam();
    cfg.numNodes = 2;
    cfg.writers = {0, 1, 0};
    CheckResult res = checkModel(cfg);
    EXPECT_TRUE(res.ok()) << report(res);
}

TEST_P(CheckModelTest, ThreeConflictingWritersThreeNodes)
{
    // Only <Lin,Synch> explores 3 writers x 3 nodes in about a second
    // (split ACKs and background persists multiply the interleavings of
    // the others, up to 88.9 M states for Strict). The other four run,
    // with their counts pinned, in CI's "Model checker, 3 writers x 3
    // nodes" job.
    if (GetParam() != PersistModel::Synch)
        GTEST_SKIP() << "too slow for ctest; run by the CI job "
                        "\"Model checker, 3 writers x 3 nodes\"";
    CheckConfig cfg;
    cfg.model = GetParam();
    cfg.numNodes = 3;
    cfg.writers = {0, 1, 2};
    cfg.maxStates = 12'000'000;
    CheckResult res = checkModel(cfg);
    EXPECT_TRUE(res.ok()) << report(res);
    // Golden: see CheckGolden below.
    EXPECT_EQ(res.statesExplored, 1'276'098u);
    EXPECT_EQ(res.transitions, 6'327'708u);
    EXPECT_EQ(res.finalStates, 179u);
}

TEST(CheckMemory, PeakLiveBytesPerStateOnSynchThreeByThree)
{
    // The visited set is a quotient table: at 2^21 slots a slot is 46
    // bits (43 remainder bits and three metadata bits) at 3/8 to 3/4
    // load, and the BFS queue holds 32-byte packed states for at most
    // two levels: ~11.6 B/state at the peak. The table doubles in place,
    // so the old and the new table are never both live. The 8-byte
    // linear-probing table with a queue of full 74-byte states before it
    // peaked at ~18.1 B/state; keeping every state, as the arena store
    // did, at ~92 B/state.
    CheckConfig cfg;
    cfg.model = PersistModel::Synch;
    cfg.numNodes = 3;
    cfg.writers = {0, 1, 2};
    const std::int64_t before = test::liveBytes();
    test::resetPeakBytes();
    CheckResult res = checkModel(cfg);
    ASSERT_EQ(res.statesExplored, 1'276'098u);
    const double perState =
        static_cast<double>(test::peakBytes() - before) /
        static_cast<double>(res.statesExplored);
    EXPECT_LT(perState, 13.5) << "peak live bytes per state";
    // The table is counted: 2^21 slots in groups of eight, a group 46 B.
    EXPECT_GT(perState, (1 << 21) / 8 * 46.0 / 1'276'098)
        << "peak live bytes per state";
}

TEST(FingerprintSet, GrowKeepsEveryFingerprint)
{
    // Fingerprints of three kinds, interleaved, across six doublings
    // (512 to 32 768 slots), plus the zero fingerprint. A fingerprint's
    // top bits are its home slot. The top 16 bits of the first kind put
    // it in the last four slots of every table up to 2^16 slots: their
    // home slots collide, and their cluster runs past the last home slot
    // at every size. The second kind collides the same way in the
    // 512-slot table, then splits between both halves at each doubling.
    // The third is spread.
    FingerprintSet set;
    std::vector<std::uint64_t> fps{0};
    for (std::uint64_t k = 1; fps.size() < 20'000; ++k) {
        const std::uint64_t r = mix(k);
        switch (k % 3) {
          case 0: fps.push_back((0xFFFF - k % 4) << 48 | r >> 16); break;
          case 1: fps.push_back((0x1FF - k % 4) << 55 | r >> 9); break;
          default: fps.push_back(r); break;
        }
    }
    // Right after each doubling, every fingerprint inserted so far is
    // found (a re-insert returns false). Check then: a later insert
    // can land in a hole that a bad move left and hide it again.
    std::size_t slots = set.slots();
    int doublings = 0;
    for (std::size_t i = 0; i < fps.size(); ++i) {
        ASSERT_TRUE(set.insert(fps[i])) << "fingerprint " << fps[i];
        if (set.slots() == slots)
            continue;
        slots = set.slots();
        ++doublings;
        for (std::size_t j = 0; j <= i; ++j)
            ASSERT_FALSE(set.insert(fps[j]))
                << "fingerprint " << fps[j] << " lost growing to " << slots
                << " slots";
    }
    EXPECT_EQ(doublings, 6);
    for (std::uint64_t fp : fps)
        EXPECT_FALSE(set.insert(fp)) << "lost fingerprint " << fp;
    EXPECT_EQ(set.size(), fps.size());
}

namespace {

/**
 * Insert spread fingerprints, from splitmix64 of @p next on, until the
 * set has doubled once; every fingerprint in @p kept must then still be
 * found. Returns the fingerprints inserted.
 */
std::vector<std::uint64_t>
growOnce(FingerprintSet &set, std::uint64_t &next,
         const std::vector<std::uint64_t> &kept)
{
    std::vector<std::uint64_t> filler;
    const std::size_t slots = set.slots();
    while (set.slots() == slots) {
        filler.push_back(mix(next++));
        EXPECT_TRUE(set.insert(filler.back()));
    }
    for (std::uint64_t fp : kept)
        EXPECT_FALSE(set.insert(fp))
            << "fingerprint " << fp << " lost growing to " << set.slots()
            << " slots";
    return filler;
}

} // namespace

TEST(FingerprintSet, OneRemainderBitApartStayDistinct)
{
    // Fingerprints that agree in every bit the home slot takes and
    // differ in one remainder bit each, the top one included, all share
    // one home: only the stored remainder tells them apart. A family at
    // each table size from 512 to 8192 slots, then five doublings; each
    // doubling moves the top remainder bit into the home slot.
    FingerprintSet set;
    std::vector<std::uint64_t> kept;
    std::uint64_t next = 1;
    for (int doubling = 0; doubling < 10; ++doubling) {
        if (doubling < 5) {
            const unsigned q = 9 + static_cast<unsigned>(doubling);
            const std::uint64_t base = mix(0x5EED0000 + q); // not a filler
            std::vector<std::uint64_t> family{base};
            for (unsigned b = 0; b < 64 - q; ++b)
                family.push_back(base ^ std::uint64_t{1} << b);
            for (std::uint64_t fp : family) {
                ASSERT_EQ(fp >> (64 - q), base >> (64 - q));
                ASSERT_TRUE(set.insert(fp)) << "fingerprint " << fp;
            }
            for (std::uint64_t fp : family)
                ASSERT_FALSE(set.insert(fp)) << "fingerprint " << fp;
            kept.insert(kept.end(), family.begin(), family.end());
        }
        const std::vector<std::uint64_t> filler = growOnce(set, next, kept);
        kept.insert(kept.end(), filler.begin(), filler.end());
    }
    EXPECT_EQ(set.slots(), std::size_t{512} << 10);
    EXPECT_EQ(set.size(), kept.size());
}

TEST(FingerprintSet, RunPastTheTableEnd)
{
    // The table does not wrap around: runs pushed past the last home
    // slot continue into spill slots after it. Fingerprints whose top
    // bits are all ones have the last home slot at every size, so 200
    // of them, with neighbours homed on the slots before it, run well
    // past the end, and go on doing so after each of four doublings.
    FingerprintSet set;
    std::vector<std::uint64_t> kept;
    for (std::uint64_t k = 0; k < 200; ++k)
        kept.push_back(~std::uint64_t{0} << 40 | mix(k) >> 24);
    for (std::uint64_t k = 0; k < 40; ++k) // homes 511 - 1 .. 511 - 4
        kept.push_back((0x1FE - k % 4) << 55 | mix(500 + k) >> 9);
    for (std::uint64_t fp : kept)
        ASSERT_TRUE(set.insert(fp)) << "fingerprint " << fp;
    for (std::uint64_t fp : kept)
        ASSERT_FALSE(set.insert(fp)) << "fingerprint " << fp;
    std::uint64_t next = 1;
    for (int doubling = 0; doubling < 4; ++doubling) {
        const std::vector<std::uint64_t> filler = growOnce(set, next, kept);
        kept.insert(kept.end(), filler.begin(), filler.end());
    }
    EXPECT_EQ(set.slots(), std::size_t{512} << 4);
    EXPECT_EQ(set.size(), kept.size());
}

namespace {

/** A State whose every field holds a value of its range, from @p seed. */
State
stateInRange(std::uint64_t seed)
{
    State s;
    auto *p = reinterpret_cast<unsigned char *>(&s);
    for (unsigned b = 0; b < sizeof s; ++b) {
        const check::detail::FieldRange f = check::detail::fieldAt(b);
        const auto span = static_cast<std::uint64_t>(f.hi - f.lo + 1);
        p[b] = static_cast<unsigned char>(
            f.lo + static_cast<int>(mix(seed * sizeof s + b) % span));
    }
    return s;
}

/** Does @p s pack and unpack to the same bytes and fingerprint? */
bool
roundTrips(const State &s)
{
    const State back = unpack(pack(s));
    return std::memcmp(&back, &s, sizeof s) == 0 &&
           hashState(back) == hashState(s);
}

} // namespace

TEST(CheckStore, PackingRoundTripsEveryFieldValue)
{
    // Each byte of each field takes every value of its range, -1 and
    // the top of the range included, among fields at random values of
    // theirs; then random states. A field packed narrower than its range
    // loses its top values here.
    std::size_t bad = 0;
    std::size_t checked = 0;
    for (unsigned b = 0; b < sizeof(State); ++b) {
        const check::detail::FieldRange f = check::detail::fieldAt(b);
        for (int v = f.lo; v <= f.hi; ++v) {
            State s = stateInRange(b * 256 + static_cast<unsigned>(v + 1));
            reinterpret_cast<unsigned char *>(&s)[b] =
                static_cast<unsigned char>(v);
            ++checked;
            if (!roundTrips(s) && ++bad <= 8)
                ADD_FAILURE() << "State byte " << b << " = " << v;
        }
    }
    for (std::uint64_t k = 0; k < 20'000; ++k)
        bad += !roundTrips(stateInRange(0xC0FFEE + k));
    EXPECT_EQ(bad, 0u) << "of " << checked + 20'000 << " states";
}

TEST(CheckStore, PackingRoundTripsEveryReachedState)
{
    // Every model on 2 and 3 nodes with two writes and on 2 nodes with
    // three (node 0 writes twice), and each mutant. Debug and sanitizer
    // builds (checkPacking) unpack every state the BFS queue packs and
    // panic on a difference; every build checks that the searches end
    // and agree with a second run.
    std::vector<CheckConfig> cfgs;
    for (PersistModel model : simproto::allModels) {
        for (const auto &[nodes, writers] :
             {std::pair{2, std::vector<int>{0, 1}},
              std::pair{3, std::vector<int>{0, 1}},
              std::pair{2, std::vector<int>{0, 1, 0}}}) {
            CheckConfig cfg;
            cfg.model = model;
            cfg.numNodes = nodes;
            cfg.writers = writers;
            cfgs.push_back(cfg);
        }
    }
    for (int bug = 0; bug < 3; ++bug) {
        CheckConfig mutant;
        mutant.model = PersistModel::Strict;
        mutant.numNodes = 3;
        mutant.writers = {0, 1};
        mutant.bugSkipConsistencySpin = bug == 0;
        mutant.bugAckBeforePersist = bug == 1;
        mutant.bugReleaseRdLockEarly = bug == 2;
        cfgs.push_back(mutant);
    }
    for (const CheckConfig &cfg : cfgs) {
        SCOPED_TRACE(std::string(simproto::shortModelName(cfg.model)) +
                     " nodes=" + std::to_string(cfg.numNodes) +
                     " writers=" + std::to_string(cfg.writers.size()) +
                     (cfg.bugSkipConsistencySpin ? " skip-spin" : "") +
                     (cfg.bugAckBeforePersist ? " ack-before-persist"
                                              : "") +
                     (cfg.bugReleaseRdLockEarly ? " early-release" : ""));
        const CheckResult a = checkModel(cfg);
        const CheckResult b = checkModel(cfg);
        EXPECT_FALSE(a.inconclusive);
        EXPECT_GT(a.statesExplored, 1u);
        EXPECT_EQ(a.statesExplored, b.statesExplored);
        EXPECT_EQ(a.transitions, b.transitions);
        EXPECT_EQ(a.finalStates, b.finalStates);
    }
}

TEST(Checker, FingerprintCollisionBound)
{
    // n(n-1)/2 / 2^64: Synch 3x3 and Strict 3x3.
    EXPECT_NEAR(fingerprintCollisionBound(1'276'098), 4.41e-8, 0.01e-8);
    EXPECT_NEAR(fingerprintCollisionBound(88'853'740), 2.14e-4, 0.01e-4);
    EXPECT_EQ(fingerprintCollisionBound(1), 0.0);
}

TEST(CheckerValidation, CatchesEarlyRdLockRelease)
{
    // Releasing the RDLock before the ACKs arrive exposes a window in
    // which all replicas are read-unlocked but diverged: invariant 2a.
    CheckConfig cfg;
    cfg.model = PersistModel::Synch;
    cfg.numNodes = 2;
    cfg.writers = {0};
    cfg.bugReleaseRdLockEarly = true;
    CheckResult res = checkModel(cfg);
    ASSERT_FALSE(res.ok())
        << "the checker failed to catch a known protocol bug";
    bool found_2a = false;
    for (const auto &v : res.violations)
        found_2a |= v.invariant.rfind("2a", 0) == 0;
    EXPECT_TRUE(found_2a) << report(res);
}

TEST(CheckerValidation, CatchesAckBeforePersist)
{
    // Acknowledging before the NVM persist lets the coordinator mark
    // the write globally durable while a replica has not persisted it:
    // invariant 3a.
    CheckConfig cfg;
    cfg.model = PersistModel::Synch;
    cfg.numNodes = 2;
    cfg.writers = {0};
    cfg.bugAckBeforePersist = true;
    CheckResult res = checkModel(cfg);
    ASSERT_FALSE(res.ok())
        << "the checker failed to catch a known durability bug";
    bool found_3a = false;
    for (const auto &v : res.violations)
        found_3a |= v.invariant.rfind("3a", 0) == 0;
    EXPECT_TRUE(found_3a) << report(res);
}

TEST(CheckerValidation, SkippingConsistencySpinStillTypeSafe)
{
    // The ConsistencySpin protects client-visible ordering, which the
    // state invariants do not model; skipping it must not corrupt the
    // replicated state itself. This documents the checker's scope.
    CheckConfig cfg;
    cfg.model = PersistModel::Synch;
    cfg.numNodes = 2;
    cfg.writers = {0, 1};
    cfg.bugSkipConsistencySpin = true;
    CheckResult res = checkModel(cfg);
    EXPECT_TRUE(res.ok()) << report(res);
}

TEST(Checker, ScopePersistCoversAllWrites)
{
    CheckConfig cfg;
    cfg.model = PersistModel::Scope;
    cfg.numNodes = 3;
    cfg.writers = {0, 1};
    CheckResult res = checkModel(cfg);
    EXPECT_TRUE(res.ok()) << report(res);
    EXPECT_GT(res.finalStates, 0u);
}

TEST(Checker, CounterexampleTraceIsReconstructed)
{
    CheckConfig cfg;
    cfg.model = PersistModel::Synch;
    cfg.numNodes = 2;
    cfg.writers = {0};
    cfg.bugReleaseRdLockEarly = true;
    cfg.recordTraces = true;
    CheckResult res = checkModel(cfg);
    ASSERT_FALSE(res.ok());
    const auto &v = res.violations.front();
    // A TLC-style action path from the initial state to the violation.
    ASSERT_FALSE(v.trace.empty()) << report(res);
    EXPECT_EQ(v.trace.front(), "StartWrite");
    // The buggy release happens inside CoordSend, so the trace must
    // contain it before the violation.
    bool has_send = false;
    for (const auto &a : v.trace)
        has_send |= (a == "CoordSend");
    EXPECT_TRUE(has_send);
}

TEST(Checker, TracesOffByDefault)
{
    CheckConfig cfg;
    cfg.model = PersistModel::Synch;
    cfg.numNodes = 2;
    cfg.writers = {0};
    cfg.bugReleaseRdLockEarly = true;
    CheckResult res = checkModel(cfg);
    ASSERT_FALSE(res.ok());
    EXPECT_TRUE(res.violations.front().trace.empty());
}

TEST(Checker, BudgetExhaustionIsInconclusive)
{
    // Running out of states must stop the run and say so, not abort
    // and not pass.
    CheckConfig cfg;
    cfg.model = PersistModel::Synch;
    cfg.numNodes = 3;
    cfg.writers = {0, 1, 2};
    cfg.maxStates = 1000;
    CheckResult res = checkModel(cfg);
    EXPECT_TRUE(res.inconclusive);
    EXPECT_FALSE(res.ok());
    EXPECT_TRUE(res.violations.empty()) << report(res);
    EXPECT_GT(res.statesExplored, 0u);
    EXPECT_LE(res.statesExplored, 1000u);
}

TEST(Checker, BudgetOfExactlyTheStateCountIsConclusive)
{
    // Synch, 3 nodes, writers {0, 1} reaches exactly 4788 states: a
    // budget of 4788 completes, one less is inconclusive.
    CheckConfig cfg;
    cfg.model = PersistModel::Synch;
    cfg.numNodes = 3;
    cfg.writers = {0, 1};
    cfg.maxStates = 4788;
    CheckResult full = checkModel(cfg);
    EXPECT_FALSE(full.inconclusive);
    EXPECT_TRUE(full.ok()) << report(full);
    EXPECT_EQ(full.statesExplored, 4788u);

    cfg.maxStates = 4787;
    CheckResult cut = checkModel(cfg);
    EXPECT_TRUE(cut.inconclusive);
    EXPECT_FALSE(cut.ok());
    EXPECT_LT(cut.statesExplored, 4788u);
}

TEST(Checker, StateSpaceIsExhaustive)
{
    // Sanity: more writers -> strictly larger state space.
    CheckConfig one;
    one.numNodes = 3;
    one.writers = {0};
    CheckConfig two;
    two.numNodes = 3;
    two.writers = {0, 1};
    auto r1 = checkModel(one);
    auto r2 = checkModel(two);
    EXPECT_GT(r2.statesExplored, r1.statesExplored * 10);
}

// ---------------------------------------------------------------------
// Golden exploration: exact state, transition and final-state counts,
// and the exact counterexamples of each mutant, recorded from the
// node-based hash-set checker that preceded the flat visited table.
// Any change to the explored graph or to BFS discovery order (which
// picks each state's parent, hence each counterexample) breaks them.
// ---------------------------------------------------------------------

namespace {

struct GoldenCounts
{
    PersistModel model;
    int nodes;
    std::vector<int> writers;
    std::size_t states;
    std::size_t transitions;
    std::size_t finals;
};

const GoldenCounts kGoldenCounts[] = {
    {PersistModel::Synch, 3, {0, 1}, 4788, 16801, 9},
    {PersistModel::Strict, 3, {0, 1}, 80826, 414698, 9},
    {PersistModel::REnf, 3, {0, 1}, 48522, 254978, 9},
    {PersistModel::Event, 3, {0, 1}, 25132, 124316, 9},
    {PersistModel::Scope, 3, {0, 1}, 67844, 370266, 9},
    {PersistModel::Synch, 2, {0, 1, 0}, 17980, 56810, 48},
    {PersistModel::Strict, 2, {0, 1, 0}, 213372, 963131, 48},
    {PersistModel::REnf, 2, {0, 1, 0}, 155032, 738268, 48},
    {PersistModel::Event, 2, {0, 1, 0}, 93068, 442669, 48},
    {PersistModel::Scope, 2, {0, 1, 0}, 125912, 601229, 48},
    {PersistModel::Synch, 3, {0}, 38, 71, 1},
    {PersistModel::Strict, 3, {0}, 152, 404, 1},
    {PersistModel::REnf, 3, {0}, 122, 331, 1},
    {PersistModel::Event, 3, {0}, 84, 215, 1},
    {PersistModel::Scope, 3, {0}, 388, 1291, 1},
};

struct GoldenViolation
{
    std::string invariant;
    std::string trace; ///< actions joined by single spaces
};

std::string
joined(const std::vector<std::string> &trace)
{
    std::string out;
    for (const auto &a : trace)
        out += (out.empty() ? "" : " ") + a;
    return out;
}

/** Run a mutant on 3 nodes, writers {0, 1}, with traces recorded. */
CheckResult
runMutant(bool CheckConfig::*bug, PersistModel model = PersistModel::Synch)
{
    CheckConfig cfg;
    cfg.model = model;
    cfg.numNodes = 3;
    cfg.writers = {0, 1};
    cfg.recordTraces = true;
    cfg.*bug = true;
    return checkModel(cfg);
}

void
expectViolations(const CheckResult &res,
                 const std::vector<GoldenViolation> &golden)
{
    ASSERT_EQ(res.violations.size(), golden.size()) << report(res);
    for (std::size_t v = 0; v < golden.size(); ++v) {
        SCOPED_TRACE("violation " + std::to_string(v));
        EXPECT_EQ(res.violations[v].invariant, golden[v].invariant);
        EXPECT_EQ(joined(res.violations[v].trace), golden[v].trace);
    }
}

const std::string k2a = "2a-volatileTS";
const std::string k3a = "3a-glb_durable-without-replica-durable";
const std::string kRenf = "renf-readable-but-not-durable";

} // namespace

TEST(CheckGolden, ExplorationCountsMatchReference)
{
    for (const auto &g : kGoldenCounts) {
        SCOPED_TRACE(std::string(simproto::shortModelName(g.model)) +
                     " nodes=" + std::to_string(g.nodes) +
                     " writes=" + std::to_string(g.writers.size()));
        CheckConfig cfg;
        cfg.model = g.model;
        cfg.numNodes = g.nodes;
        cfg.writers = g.writers;
        CheckResult res = checkModel(cfg);
        EXPECT_TRUE(res.ok()) << report(res);
        EXPECT_EQ(res.statesExplored, g.states);
        EXPECT_EQ(res.transitions, g.transitions);
        EXPECT_EQ(res.finalStates, g.finals);
    }
}

TEST(CheckGolden, ReleaseEarlyCounterexamples)
{
    CheckResult res = runMutant(&CheckConfig::bugReleaseRdLockEarly);
    EXPECT_EQ(res.statesExplored, 4788u);
    EXPECT_EQ(res.transitions, 16801u);
    EXPECT_EQ(res.finalStates, 9u);
    expectViolations(
        res, {
                 {k2a, "StartWrite CoordSend"},
                 {kRenf, "StartWrite CoordSend"},
                 {k2a, "StartWrite CoordSend"},
                 {kRenf, "StartWrite CoordSend"},
                 {k2a, "StartWrite CoordSend CoordPersist"},
                 {kRenf, "StartWrite CoordSend CoordPersist"},
                 {kRenf, "StartWrite CoordSend DeliverInv"},
                 {kRenf, "StartWrite CoordSend DeliverInv"},
                 {kRenf, "StartWrite CoordSend StartWrite"},
                 {kRenf, "StartWrite StartWrite CoordSend"},
                 {k2a, "StartWrite CoordSend CoordPersist"},
                 {kRenf, "StartWrite CoordSend CoordPersist"},
                 {kRenf, "StartWrite CoordSend DeliverInv"},
                 {kRenf, "StartWrite CoordSend DeliverInv"},
                 {kRenf, "StartWrite CoordSend CoordPersist DeliverInv"},
                 {kRenf, "StartWrite CoordSend CoordPersist DeliverInv"},
             });
}

TEST(CheckGolden, AckBeforePersistCounterexamples)
{
    CheckResult res = runMutant(&CheckConfig::bugAckBeforePersist);
    EXPECT_EQ(res.statesExplored, 16172u);
    EXPECT_EQ(res.transitions, 74264u);
    EXPECT_EQ(res.finalStates, 9u);
    // Every counterexample starts with the first write's send, its
    // coordinator persist and one INV delivery.
    const std::string head = "StartWrite CoordSend CoordPersist DeliverInv ";
    const std::string acks = head + "DeliverAck DeliverInv DeliverAck ";
    const std::string commit = acks + "CoordCommit";
    const std::string val = acks + "CoordCommit DeliverVal";
    const std::string bg1 =
        head + "FollowerBgPersist DeliverAck DeliverInv DeliverAck CoordCommit";
    const std::string bg2 =
        head + "DeliverAck DeliverInv FollowerBgPersist DeliverAck CoordCommit";
    expectViolations(res, {
                              {k3a, commit},
                              {kRenf, commit},
                              {k3a, commit},
                              {kRenf, commit},
                              {k3a, bg1},
                              {kRenf, bg1},
                              {k3a, bg2},
                              {kRenf, bg2},
                              {k3a, val},
                              {k3a, val},
                              {kRenf, val},
                              {kRenf, val},
                              {k3a, val},
                              {k3a, val},
                              {kRenf, val},
                              {kRenf, val},
                          });
}

TEST(CheckGolden, AckBeforePersistSplitAckCounterexamples)
{
    // Strict and REnf send ACK_P ahead of the persist: the coordinator
    // raises glb_durableTS while one follower has logged nothing. Unlike
    // the cases above, these were recorded from the checker that runs
    // the shared follower tables; none before it had this mutant.
    struct Case
    {
        PersistModel model;
        std::size_t states, transitions;
        std::string first;
    };
    const std::string acks =
        " DeliverInv DeliverAckC DeliverAckP DeliverInv DeliverAckC ";
    const Case cases[] = {
        {PersistModel::Strict, 298'740, 1'922'560,
         "StartWrite CoordSend CoordPersist" + acks +
             "CoordCommitC DeliverAckP CoordCommitP"},
        {PersistModel::REnf, 147'924, 948'604,
         "StartWrite CoordSend CoordBgPersist" + acks +
             "CoordReturn DeliverAckP CoordCommitP"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(simproto::shortModelName(c.model)));
        CheckResult res =
            runMutant(&CheckConfig::bugAckBeforePersist, c.model);
        EXPECT_EQ(res.statesExplored, c.states);
        EXPECT_EQ(res.transitions, c.transitions);
        EXPECT_EQ(res.finalStates, 9u);
        ASSERT_EQ(res.violations.size(), 16u) << report(res);
        EXPECT_EQ(res.violations.front().invariant, k3a);
        EXPECT_EQ(joined(res.violations.front().trace), c.first);
    }
}

TEST(CheckGolden, SkipSpinExploration)
{
    CheckResult res = runMutant(&CheckConfig::bugSkipConsistencySpin);
    EXPECT_TRUE(res.ok()) << report(res);
    EXPECT_EQ(res.statesExplored, 5750u);
    EXPECT_EQ(res.transitions, 20723u);
    EXPECT_EQ(res.finalStates, 9u);
}
