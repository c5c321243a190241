/**
 * @file
 * Unit tests for timestamps, record metadata, and the MINOS-KV stores.
 */

#include <gtest/gtest.h>

#include <compare>
#include <iterator>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "kv/record.hh"
#include "kv/store.hh"
#include "kv/timestamp.hh"

using namespace minos::kv;

TEST(Timestamp, NoneIsSentinel)
{
    auto none = Timestamp::none();
    EXPECT_TRUE(none.isNone());
    EXPECT_EQ(none.version, -1);
    EXPECT_EQ(none.node, -1);
}

TEST(Timestamp, OrderingByVersionThenNode)
{
    // Paper §III-A: newer = higher version; tie -> higher node_id.
    Timestamp a{5, 0}, b{6, 0}, c{5, 1};
    EXPECT_LT(a, b);
    EXPECT_LT(a, c);
    EXPECT_LT(c, b);
    EXPECT_GT(b, a);
    EXPECT_EQ(a, (Timestamp{5, 0}));
}

TEST(Timestamp, NoneOrdersBeforeEverything)
{
    EXPECT_LT(Timestamp::none(), (Timestamp{0, 0}));
    EXPECT_LT(Timestamp::none(), (Timestamp{1, 3}));
}

TEST(Timestamp, PackRoundTrips)
{
    std::vector<Timestamp> cases = {
        Timestamp::none(), {0, 0}, {1, 0}, {0, 1}, {1234567, 42},
        {1, Timestamp::maxNode},
    };
    for (const auto &ts : cases)
        EXPECT_EQ(Timestamp::unpack(ts.pack()), ts);
}

namespace {

/** Versions at the edges of the 24-bit field, and the sentinel's. */
constexpr std::int64_t edgeVersions[] = {
    -1, 0, 1, Timestamp::maxVersion - 1, Timestamp::maxVersion,
};
/** Node ids at the edges of the 8-bit field, and the sentinel's. */
constexpr NodeId edgeNodes[] = {
    -1, 0, 1, Timestamp::maxNode - 1, Timestamp::maxNode,
};

} // namespace

TEST(Timestamp, OneWordHoldsTheFieldEdges)
{
    static_assert(Timestamp::maxVersion == 8388607);
    static_assert(Timestamp::maxNode == 127);
    for (std::int64_t v : edgeVersions) {
        for (NodeId n : edgeNodes) {
            Timestamp ts{v, n};
            EXPECT_EQ(ts.version, v);
            EXPECT_EQ(ts.node, n);
            EXPECT_EQ(Timestamp::unpack(ts.pack()), ts) << ts;
        }
    }
    // The packed word of the largest timestamp stays a non-negative
    // int64, as the trace tokens need.
    Timestamp top{Timestamp::maxVersion, Timestamp::maxNode};
    EXPECT_GT(static_cast<std::int64_t>(top.pack()), 0);
    EXPECT_EQ(Timestamp::unpack(0), Timestamp::none());
}

// The constructor is usable in constant expressions, where an
// out-of-range field would fail to compile.
static_assert(Timestamp{Timestamp::maxVersion, Timestamp::maxNode} >
              Timestamp{Timestamp::maxVersion, 0});
static_assert(Timestamp{} == Timestamp::none());

TEST(Timestamp, PackedWordIsPinned)
{
    // Words of the 64-bit format: version + 1 above a 16-bit node + 1.
    // Write ids, slot-index probes and trace tokens all hash or print
    // this word, so it must not move when the fields change width.
    const std::pair<Timestamp, std::uint64_t> pins[] = {
        {Timestamp::none(), 0x0},
        {{0, 0}, 0x10001},
        {{0, 1}, 0x10002},
        {{1, 0}, 0x20001},
        {{5, 1}, 0x60002},
        {{123456, 42}, 0x1e241002b},
        {{Timestamp::maxVersion - 1, Timestamp::maxNode - 1}, 0x7fffff007f},
        {{Timestamp::maxVersion, Timestamp::maxNode}, 0x8000000080},
        {{Timestamp::maxVersion, -1}, 0x8000000000},
        {{-1, Timestamp::maxNode}, 0x80},
        {{0, -1}, 0x10000},
    };
    for (const auto &[ts, word] : pins) {
        EXPECT_EQ(ts.pack(), word) << ts;
        EXPECT_EQ(Timestamp::unpack(word), ts) << ts;
    }
}

TEST(TimestampDeathTest, ConstructorRefusesFieldsOutOfRange)
{
    EXPECT_DEATH((void)(Timestamp{Timestamp::maxVersion + 1, 0}),
                 "version out of range");
    EXPECT_DEATH((void)(Timestamp{-2, 0}), "version out of range");
    EXPECT_DEATH((void)(Timestamp{0, Timestamp::maxNode + 1}),
                 "node id out of range");
    EXPECT_DEATH((void)(Timestamp{0, -2}), "node id out of range");
    // A packed word whose fields do not fit is refused the same way.
    EXPECT_DEATH((void)Timestamp::unpack(std::uint64_t{1} << 40),
                 "version out of range");
}

TEST(TimestampProperty, CompareAgreesWithPackAndLexicographicOrder)
{
    std::mt19937_64 rng(2024);
    auto draw = [&]() {
        std::int64_t v = rng() % 3 == 0
                             ? edgeVersions[rng() % std::size(edgeVersions)]
                             : static_cast<std::int64_t>(
                                   rng() % (Timestamp::maxVersion + 1));
        NodeId n = rng() % 3 == 0
                       ? edgeNodes[rng() % std::size(edgeNodes)]
                       : static_cast<NodeId>(
                             rng() % (Timestamp::maxNode + 1));
        // Small versions make equal-version pairs (node tie-breaks)
        // common.
        if (rng() % 4 == 0)
            v = static_cast<std::int64_t>(rng() % 3);
        return rng() % 16 == 0 ? Timestamp::none() : Timestamp{v, n};
    };
    for (int i = 0; i < 20000; ++i) {
        Timestamp a = draw(), b = draw();
        using Lex = std::pair<std::int64_t, NodeId>;
        auto lex = Lex(+a.version, +a.node) <=> Lex(+b.version, +b.node);
        EXPECT_EQ(a <=> b, lex) << a << " vs " << b;
        EXPECT_EQ(a <=> b, a.pack() <=> b.pack()) << a << " vs " << b;
        EXPECT_EQ(a == b, lex == 0) << a << " vs " << b;
        EXPECT_EQ(Timestamp::unpack(a.pack()), a) << a;
    }
}

TEST(Timestamp, PackPreservesOrdering)
{
    std::vector<Timestamp> sorted = {
        Timestamp::none(), {0, 0}, {0, 5}, {1, 0}, {2, 0}, {2, 3},
        {100, 0},
    };
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
        EXPECT_LT(sorted[i], sorted[i + 1]);
        EXPECT_LT(sorted[i].pack(), sorted[i + 1].pack());
    }
}

TEST(Record, FreshRecordState)
{
    Record rec;
    EXPECT_TRUE(rec.rdLockFree());
    EXPECT_TRUE(rec.volatileTs.isNone());
    EXPECT_TRUE(rec.glbVolatileTs.isNone());
    EXPECT_TRUE(rec.glbDurableTs.isNone());
}

TEST(Record, ObsoleteCheck)
{
    Record rec;
    // Nothing written yet: no write is obsolete.
    EXPECT_FALSE(isObsolete(rec, Timestamp{1, 0}));
    rec.volatileTs = Timestamp{5, 2};
    EXPECT_TRUE(isObsolete(rec, Timestamp{4, 3}));  // older version
    EXPECT_TRUE(isObsolete(rec, Timestamp{5, 1}));  // same ver, lower node
    EXPECT_FALSE(isObsolete(rec, Timestamp{5, 2})); // itself: not obsolete
    EXPECT_FALSE(isObsolete(rec, Timestamp{5, 3})); // newer
    EXPECT_FALSE(isObsolete(rec, Timestamp{6, 0}));
}

TEST(SimStore, HoldsIndependentRecords)
{
    SimStore store(10);
    EXPECT_EQ(store.size(), 10u);
    store.at(3).value = 99;
    store.at(3).volatileTs = Timestamp{1, 0};
    EXPECT_EQ(store.at(3).value, 99u);
    EXPECT_EQ(store.at(4).value, 0u);
    EXPECT_TRUE(store.at(4).volatileTs.isNone());
}

TEST(AtomicRecord, InitializedToNone)
{
    AtomicRecord rec;
    EXPECT_TRUE(rec.loadRdLockOwner().isNone());
    EXPECT_TRUE(rec.loadVolatileTs().isNone());
    EXPECT_TRUE(rec.loadGlbVolatileTs().isNone());
    EXPECT_TRUE(rec.loadGlbDurableTs().isNone());
    EXPECT_FALSE(rec.wrLock.load());
}

TEST(AtomicRecord, RaiseTsIsMonotonic)
{
    AtomicRecord rec;
    EXPECT_TRUE(AtomicRecord::raiseTs(rec.volatileTs, Timestamp{3, 0}));
    EXPECT_EQ(rec.loadVolatileTs(), (Timestamp{3, 0}));
    // Older value must not overwrite.
    EXPECT_FALSE(AtomicRecord::raiseTs(rec.volatileTs, Timestamp{2, 9}));
    EXPECT_EQ(rec.loadVolatileTs(), (Timestamp{3, 0}));
    // Equal value: no update needed.
    EXPECT_FALSE(AtomicRecord::raiseTs(rec.volatileTs, Timestamp{3, 0}));
    // Newer: updates.
    EXPECT_TRUE(AtomicRecord::raiseTs(rec.volatileTs, Timestamp{3, 1}));
    EXPECT_EQ(rec.loadVolatileTs(), (Timestamp{3, 1}));
}

TEST(AtomicRecord, RaiseTsUnderContention)
{
    AtomicRecord rec;
    constexpr int threads = 8;
    constexpr int per_thread = 1000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&rec, t] {
            for (int i = 0; i < per_thread; ++i)
                AtomicRecord::raiseTs(rec.volatileTs,
                                      Timestamp{i, t});
        });
    }
    for (auto &th : pool)
        th.join();
    // The maximum must win: version per_thread-1, node threads-1.
    EXPECT_EQ(rec.loadVolatileTs(),
              (Timestamp{per_thread - 1, threads - 1}));
}
