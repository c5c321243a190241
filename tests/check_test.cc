/**
 * @file
 * Model-checking tests (paper §VI, Table I): exhaustive exploration of
 * the abstract protocol model for every <Lin, P> combination, plus
 * checker self-validation through deliberately buggy protocol variants.
 */

#include <gtest/gtest.h>

#include "alloc_hook.hh"
#include "check/checker.hh"

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
    // The visited set keeps an 8 B fingerprint per state, at 3/8 to 3/4
    // load, and full 77 B states live only in the BFS queue (at most two
    // levels): ~25 B/state at the peak, when the table doubles. Keeping
    // every state, as the arena store did, peaks at ~92 B/state.
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
    EXPECT_LT(perState, 40.0) << "peak live bytes per state";
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
    cfg.scopePersist = true;
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
runMutant(bool CheckConfig::*bug)
{
    CheckConfig cfg;
    cfg.model = PersistModel::Synch;
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

TEST(CheckGolden, SkipSpinExploration)
{
    CheckResult res = runMutant(&CheckConfig::bugSkipConsistencySpin);
    EXPECT_TRUE(res.ok()) << report(res);
    EXPECT_EQ(res.statesExplored, 5750u);
    EXPECT_EQ(res.transitions, 20723u);
    EXPECT_EQ(res.finalStates, 9u);
}
