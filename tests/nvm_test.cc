/**
 * @file
 * Unit tests for the NVM timing model, the durability rule, the
 * append-only log and the simulated engines' durable state.
 */

#include <gtest/gtest.h>

#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "nvm/durable_state.hh"
#include "nvm/log.hh"
#include "nvm/model.hh"
#include "simproto/config.hh"

using namespace minos;
using namespace minos::nvm;
using minos::kv::Timestamp;

TEST(NvmModel, DefaultTableIIValue)
{
    const Tick nsPerKb = simproto::ClusterConfig{}.persistNsPerKb;
    EXPECT_EQ(nsPerKb, 1295);
    EXPECT_EQ(persistLatency(nsPerKb, 1024), 1295);
}

TEST(NvmModel, ScalesLinearly)
{
    EXPECT_EQ(persistLatency(1000, 2048), 2000);
    EXPECT_EQ(persistLatency(1000, 512), 500);
    EXPECT_EQ(persistLatency(1000, 0), 0);
    // Tiny persists still cost at least one tick.
    EXPECT_GE(persistLatency(1000, 1), 1);
}

TEST(NvmModel, SweepValuesFromFig14)
{
    // Fig. 14 sweeps 100ns .. 100us per KB.
    EXPECT_EQ(persistLatency(100, 1024), 100);
    EXPECT_EQ(persistLatency(100'000, 1024), 100'000);
}

namespace {

/** The reference fold: offers @p entries to @p db in order, by the
 *  durability rule. Returns the number of entries taken. */
std::size_t
fold(DurableDb &db, const std::vector<LogEntry> &entries)
{
    std::size_t taken = 0;
    for (const LogEntry &e : entries)
        taken += db[e.key].offer(e.value, e.ts);
    return taken;
}

} // namespace

TEST(DurableLog, AppendAssignsSequentialIndices)
{
    DurableLog log;
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.append({1, 10, {0, 0}}), 0u);
    EXPECT_EQ(log.append({2, 20, {0, 1}}), 1u);
    EXPECT_EQ(log.size(), 2u);
}

TEST(DurableLog, ApplyInOrder)
{
    DurableDb db;
    EXPECT_EQ(fold(db, {{1, 10, Timestamp{0, 0}},
                        {1, 11, Timestamp{1, 0}},
                        {2, 20, Timestamp{0, 1}}}),
              3u);
    EXPECT_EQ(db[1].value, 11u);
    EXPECT_EQ(db[1].ts, (Timestamp{1, 0}));
    EXPECT_EQ(db[2].value, 20u);
}

TEST(DurableLog, OutOfOrderEntriesFilteredOnApply)
{
    // §V-B.4: persists may land out of order (hence obsolete); they are
    // checked for obsoleteness when applied to the durable state.
    DurableDb db;
    EXPECT_EQ(fold(db, {{7, 100, Timestamp{5, 1}},  // newest first
                        {7, 99, Timestamp{4, 0}},   // obsolete
                        {7, 98, Timestamp{5, 0}}}), // obsolete (node tie-break)
              1u);
    EXPECT_EQ(db[7].value, 100u);
    EXPECT_EQ(db[7].ts, (Timestamp{5, 1}));
    // An equal TS is not newer either.
    EXPECT_FALSE(db[7].offer(97, Timestamp{5, 1}));
    EXPECT_EQ(db[7].value, 100u);
}

TEST(DurableLog, ApplyEntriesSkipsStaleAgainstExistingDb)
{
    DurableDb db;
    db[3] = DurableRecord{55, Timestamp{10, 0}};
    EXPECT_EQ(fold(db, {{3, 44, Timestamp{9, 4}},  // stale vs db
                        {3, 66, Timestamp{11, 0}}, // fresh
                        {4, 77, Timestamp{1, 0}}}), // new key
              2u);
    EXPECT_EQ(db[3].value, 66u);
    EXPECT_EQ(db[4].value, 77u);
}

TEST(DurableLog, ConcurrentAppendsAllLand)
{
    // Threads append to one log and, as the threaded runtime persists,
    // offer updates of shared keys to one durable array under a mutex.
    DurableLog log;
    constexpr int threads = 8, per_thread = 500, keys = 4;
    std::mutex mutex;
    std::vector<DurableRecord> durable(keys);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (int i = 0; i < per_thread; ++i) {
                log.append({static_cast<kv::Key>(t), 1u, Timestamp{i, t}});
                std::lock_guard<std::mutex> guard(mutex);
                durable[i % keys].offer(static_cast<kv::Value>(t),
                                        Timestamp{i, t});
            }
        });
    }
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(log.size(),
              static_cast<std::size_t>(threads * per_thread));
    // Per key the max version wins, and on a tie the highest node.
    for (int k = 0; k < keys; ++k) {
        EXPECT_EQ(durable[k].ts, (Timestamp{per_thread - keys + k,
                                            threads - 1}))
            << "key " << k;
        EXPECT_EQ(durable[k].value, static_cast<kv::Value>(threads - 1));
    }
}

TEST(DurableState, MatchesLogReplayUnderAnyPersistOrder)
{
    // Records take updates only forward, as the engines apply them;
    // persists land in any order, late and duplicated ones included. The
    // records plus the overlay must equal a replay of every persist, and
    // the overlay must hold exactly the keys whose durable state differs
    // from the record.
    constexpr std::size_t keys = 300;
    std::mt19937_64 rng(3);
    kv::SimStore store(keys);
    DurableState durable;
    std::vector<LogEntry> persisted;
    std::vector<std::vector<LogEntry>> issued(keys);
    auto compare = [&] {
        DurableDb want;
        fold(want, persisted);
        const DurableDb got = durable.db(store);
        ASSERT_EQ(got.size(), want.size());
        std::size_t differ = 0;
        for (kv::Key k = 0; k < keys; ++k) {
            const auto it = want.find(k);
            const auto at = durable.at(store.at(k), k);
            ASSERT_EQ(at.has_value(), it != want.end()) << "key " << k;
            const kv::Record &rec = store.at(k);
            if (it == want.end()) {
                differ += !rec.volatileTs.isNone();
                continue;
            }
            EXPECT_EQ(at->ts, it->second.ts) << "key " << k;
            EXPECT_EQ(at->value, it->second.value) << "key " << k;
            EXPECT_EQ(got.at(k).ts, it->second.ts) << "key " << k;
            differ += rec.volatileTs != it->second.ts;
        }
        EXPECT_EQ(durable.lagging(), differ);
    };
    for (int step = 0; step < 200'000; ++step) {
        const kv::Key k = rng() % (step < 100'000 ? keys : 8);
        auto &writes = issued[k];
        const auto r = rng() % 8;
        if (writes.empty() || r < 2) {
            const auto version = static_cast<std::int64_t>(writes.size());
            writes.push_back(LogEntry{k, rng(), Timestamp{version, 0}});
            continue;
        }
        const LogEntry &e = writes[rng() % writes.size()];
        kv::Record &rec = store.at(k);
        if (r < 5) {
            if (!(rec.volatileTs > e.ts))
                durable.apply(rec, k, e.value, e.ts);
        } else {
            durable.persist(rec, k, e.value, e.ts);
            persisted.push_back(e);
        }
        if (step % 20'000 == 0)
            compare();
    }
    compare();
    EXPECT_EQ(durable.size(), persisted.size());
    EXPECT_GT(durable.peakLagging(), 50u);
}
