/**
 * @file
 * Unit tests for the YCSB-style generator and the DeathStar Login model.
 */

#include <gtest/gtest.h>

#include <set>

#include "workload/deathstar.hh"
#include "workload/ycsb.hh"

using namespace minos;
using namespace minos::workload;

TEST(Ycsb, DeterministicPerNodeStreams)
{
    YcsbConfig cfg;
    cfg.numRecords = 1000;
    YcsbGenerator a(cfg, 2), b(cfg, 2), c(cfg, 3);
    auto sa = a.stream(100), sb = b.stream(100), sc = c.stream(100);
    EXPECT_EQ(sa, sb);
    EXPECT_NE(sa, sc);
}

namespace {

/** FNV-1a over the type, key and value of the first @p n requests. */
std::uint64_t
streamDigest(YcsbGenerator &gen, std::uint64_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            h ^= (word >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const Op &op : gen.stream(n)) {
        mix(static_cast<std::uint64_t>(op.type));
        mix(op.key);
        mix(op.value);
    }
    return h;
}

/** Node 0's first 4000 requests under the paper's default YCSB mix. */
constexpr std::uint64_t paperZipfianDigest = 0xec698ba8b615ac0aull;

} // namespace

TEST(Ycsb, ZipfianStreamIsPinned)
{
    YcsbGenerator gen(YcsbConfig{}, 0);
    EXPECT_EQ(streamDigest(gen, 4000), paperZipfianDigest);
}

TEST(Ycsb, ZipfianNormaliserSurvivesOtherShapes)
{
    // The zipfian normaliser is memoised per thread; a generator of
    // another record count or skew in between must not leak into the
    // next one, either way round.
    YcsbConfig other_theta;
    other_theta.zipfTheta = 0.5;
    YcsbConfig other_records;
    other_records.numRecords = 1000;
    YcsbConfig neither;
    neither.numRecords = 10;
    neither.zipfTheta = 0.3;
    for (const YcsbConfig &other : {other_theta, other_records}) {
        // Start from a memo that matches neither field.
        YcsbGenerator reset(neither, 0);
        YcsbGenerator before(other, 0);
        YcsbGenerator gen(YcsbConfig{}, 0);
        YcsbGenerator after(other, 0);
        EXPECT_EQ(streamDigest(gen, 4000), paperZipfianDigest);
        EXPECT_EQ(before.stream(500), after.stream(500));
    }
}

TEST(Ycsb, WriteFractionRespected)
{
    YcsbConfig cfg;
    cfg.numRecords = 1000;
    for (double frac : {0.2, 0.5, 0.8, 1.0}) {
        cfg.writeFraction = frac;
        YcsbGenerator gen(cfg, 0);
        int writes = 0;
        const int n = 20000;
        for (int i = 0; i < n; ++i)
            writes += (gen.next().type == OpType::Write);
        EXPECT_NEAR(static_cast<double>(writes) / n, frac, 0.02)
            << "fraction " << frac;
    }
}

TEST(Ycsb, AllReadsWhenFractionZero)
{
    YcsbConfig cfg;
    cfg.numRecords = 10;
    cfg.writeFraction = 0.0;
    YcsbGenerator gen(cfg, 0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(gen.next().type, OpType::Read);
}

TEST(Ycsb, KeysInRange)
{
    YcsbConfig cfg;
    cfg.numRecords = 37;
    for (auto dist : {KeyDist::Zipfian, KeyDist::Uniform}) {
        cfg.dist = dist;
        YcsbGenerator gen(cfg, 1);
        for (int i = 0; i < 5000; ++i)
            EXPECT_LT(gen.next().key, 37u);
    }
}

TEST(Ycsb, WriteValuesAreUniquePerNode)
{
    YcsbConfig cfg;
    cfg.numRecords = 100;
    cfg.writeFraction = 1.0;
    YcsbGenerator g0(cfg, 0), g1(cfg, 1);
    std::set<kv::Value> values;
    for (int i = 0; i < 1000; ++i) {
        values.insert(g0.next().value);
        values.insert(g1.next().value);
    }
    // Two nodes x 1000 writes: all payload tokens distinct.
    EXPECT_EQ(values.size(), 2000u);
}

TEST(Ycsb, TinyDatabaseFromFig14)
{
    // Fig. 14 sweeps the DB down to 10 records; the generator must cope.
    YcsbConfig cfg;
    cfg.numRecords = 10;
    YcsbGenerator gen(cfg, 0);
    auto ops = gen.stream(1000);
    for (const auto &op : ops)
        EXPECT_LT(op.key, 10u);
}

TEST(YcsbPresets, StandardMixes)
{
    auto a = ycsbPreset('A');
    EXPECT_DOUBLE_EQ(a.writeFraction, 0.5);
    EXPECT_DOUBLE_EQ(a.rmwFraction, 0.0);
    auto b = ycsbPreset('B');
    EXPECT_DOUBLE_EQ(b.writeFraction, 0.05);
    auto c = ycsbPreset('c'); // case-insensitive
    EXPECT_DOUBLE_EQ(c.writeFraction, 0.0);
    auto f = ycsbPreset('F');
    EXPECT_DOUBLE_EQ(f.writeFraction, 0.0);
    EXPECT_DOUBLE_EQ(f.rmwFraction, 0.5);
}

TEST(YcsbPresets, WorkloadFGeneratesRmwMix)
{
    YcsbConfig cfg = ycsbPreset('F');
    cfg.numRecords = 100;
    YcsbGenerator gen(cfg, 0);
    int reads = 0, writes = 0, rmws = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        switch (gen.next().type) {
          case OpType::Read: ++reads; break;
          case OpType::Write: ++writes; break;
          case OpType::ReadModifyWrite: ++rmws; break;
        }
    }
    EXPECT_EQ(writes, 0);
    EXPECT_NEAR(static_cast<double>(rmws) / n, 0.5, 0.02);
    EXPECT_NEAR(static_cast<double>(reads) / n, 0.5, 0.02);
}

TEST(YcsbPresets, RmwOpsCarryPayload)
{
    YcsbConfig cfg = ycsbPreset('F');
    cfg.numRecords = 10;
    YcsbGenerator gen(cfg, 1);
    for (int i = 0; i < 1000; ++i) {
        Op op = gen.next();
        if (op.type == OpType::ReadModifyWrite) {
            EXPECT_NE(op.value, 0u);
        }
    }
}

TEST(DeathStar, SpecsMatchPaperSetup)
{
    auto social = socialNetworkLogin();
    auto media = mediaMicroservicesLogin();
    EXPECT_EQ(social.app, "Social");
    EXPECT_EQ(media.app, "Media");
    EXPECT_EQ(social.function, "Login");
    EXPECT_EQ(media.function, "Login");
    // Paper §VIII-C: 500us node-to-node RTT.
    EXPECT_EQ(social.rttNs, 500 * US);
    EXPECT_EQ(media.rttNs, 500 * US);
    EXPECT_GT(social.numSets, 0);
    EXPECT_GT(social.numGets, 0);
    // Social Network touches more state than Media.
    EXPECT_GE(social.numSets + social.numGets,
              media.numSets + media.numGets);
}

TEST(DeathStar, InvocationOpsMatchSpec)
{
    auto spec = socialNetworkLogin();
    Rng rng(9);
    UniformKeys keys(500);
    std::uint64_t next_value = 100;
    auto ops = invocationOps(spec, keys, rng, next_value);
    ASSERT_EQ(ops.size(),
              static_cast<std::size_t>(spec.numGets + spec.numSets));
    int gets = 0, sets = 0;
    for (const auto &op : ops) {
        if (op.type == OpType::Read)
            ++gets;
        else
            ++sets;
        EXPECT_LT(op.key, 500u);
    }
    EXPECT_EQ(gets, spec.numGets);
    EXPECT_EQ(sets, spec.numSets);
    // next_value advanced once per SET.
    EXPECT_EQ(next_value, 100u + static_cast<std::uint64_t>(spec.numSets));
}
