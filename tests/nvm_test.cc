/**
 * @file
 * Unit tests for the NVM timing model and the durable log.
 */

#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "nvm/durable_state.hh"
#include "nvm/log.hh"
#include "nvm/model.hh"

using namespace minos;
using namespace minos::nvm;
using minos::kv::Timestamp;

TEST(NvmModel, DefaultTableIIValue)
{
    NvmModel nvm;
    EXPECT_EQ(nvm.nsPerKb(), 1295);
    EXPECT_EQ(nvm.persistLatency(1024), 1295);
}

TEST(NvmModel, ScalesLinearly)
{
    NvmModel nvm(1000);
    EXPECT_EQ(nvm.persistLatency(2048), 2000);
    EXPECT_EQ(nvm.persistLatency(512), 500);
    EXPECT_EQ(nvm.persistLatency(0), 0);
    // Tiny persists still cost at least one tick.
    EXPECT_GE(nvm.persistLatency(1), 1);
}

TEST(NvmModel, SweepValuesFromFig14)
{
    // Fig. 14 sweeps 100ns .. 100us per KB.
    EXPECT_EQ(NvmModel(100).persistLatency(1024), 100);
    EXPECT_EQ(NvmModel(100'000).persistLatency(1024), 100'000);
}

TEST(DurableLog, AppendAssignsSequentialIndices)
{
    DurableLog log;
    EXPECT_EQ(log.append({1, 10, {0, 0}}), 0u);
    EXPECT_EQ(log.append({2, 20, {0, 1}}), 1u);
    EXPECT_EQ(log.size(), 2u);
    EXPECT_EQ(log.entryAt(0).key, 1u);
    EXPECT_EQ(log.entryAt(1).value, 20u);
}

TEST(DurableLog, ApplyInOrder)
{
    DurableLog log;
    log.append({1, 10, Timestamp{0, 0}});
    log.append({1, 11, Timestamp{1, 0}});
    log.append({2, 20, Timestamp{0, 1}});
    DurableDb db;
    EXPECT_EQ(log.applyTo(db), 3u);
    EXPECT_EQ(db[1].value, 11u);
    EXPECT_EQ(db[1].ts, (Timestamp{1, 0}));
    EXPECT_EQ(db[2].value, 20u);
}

TEST(DurableLog, OutOfOrderEntriesFilteredOnApply)
{
    // §V-B.4: the log may contain out-of-order (hence obsolete) entries;
    // they are checked for obsoleteness when applied to the durable DB.
    DurableLog log;
    log.append({7, 100, Timestamp{5, 1}}); // newest first
    log.append({7, 99, Timestamp{4, 0}});  // obsolete
    log.append({7, 98, Timestamp{5, 0}});  // obsolete (tie-break on node)
    DurableDb db;
    EXPECT_EQ(log.applyTo(db), 1u);
    EXPECT_EQ(db[7].value, 100u);
    EXPECT_EQ(db[7].ts, (Timestamp{5, 1}));
}

TEST(DurableLog, ApplyFromSuffix)
{
    DurableLog log;
    log.append({1, 10, Timestamp{0, 0}});
    log.append({1, 11, Timestamp{1, 0}});
    log.append({1, 12, Timestamp{2, 0}});
    DurableDb db;
    EXPECT_EQ(log.applyTo(db, 2), 1u);
    EXPECT_EQ(db[1].value, 12u);
}

TEST(DurableLog, EntriesSinceForRecoveryShipping)
{
    DurableLog log;
    for (int i = 0; i < 5; ++i)
        log.append({static_cast<kv::Key>(i), 0u,
                    Timestamp{i, 0}});
    auto suffix = log.entriesSince(3);
    ASSERT_EQ(suffix.size(), 2u);
    EXPECT_EQ(suffix[0].key, 3u);
    EXPECT_EQ(suffix[1].key, 4u);
    EXPECT_TRUE(log.entriesSince(5).empty());
    EXPECT_TRUE(log.entriesSince(99).empty());
}

TEST(DurableLog, ApplyEntriesSkipsStaleAgainstExistingDb)
{
    DurableDb db;
    db[3] = DurableRecord{55, Timestamp{10, 0}};
    std::vector<LogEntry> shipped = {
        {3, 44, Timestamp{9, 4}},  // stale vs db
        {3, 66, Timestamp{11, 0}}, // fresh
        {4, 77, Timestamp{1, 0}},  // new key
    };
    EXPECT_EQ(applyEntries(db, shipped), 2u);
    EXPECT_EQ(db[3].value, 66u);
    EXPECT_EQ(db[4].value, 77u);
}

TEST(DurableLog, ConcurrentAppendsAllLand)
{
    DurableLog log;
    constexpr int threads = 8, per_thread = 500;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&log, t] {
            for (int i = 0; i < per_thread; ++i)
                log.append({static_cast<kv::Key>(t), 1u,
                            Timestamp{i, t}});
        });
    }
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(log.size(),
              static_cast<std::size_t>(threads * per_thread));
    // Replay: per key the max version must win.
    DurableDb db;
    log.applyTo(db);
    for (int t = 0; t < threads; ++t)
        EXPECT_EQ(db[static_cast<kv::Key>(t)].ts,
                  (Timestamp{per_thread - 1, t}));
}

TEST(DurableLog, ClearEmptiesLog)
{
    DurableLog log;
    log.append({1, 2, Timestamp{0, 0}});
    log.clear();
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.compactedThrough(), 0u);
}

TEST(DurableLogCompaction, PreservesApplyResult)
{
    DurableLog log;
    for (int i = 0; i < 10; ++i)
        log.append({static_cast<kv::Key>(i % 3),
                    static_cast<kv::Value>(100 + i), Timestamp{i, 0}});
    DurableDb before;
    log.applyTo(before);

    log.compact(6);
    EXPECT_EQ(log.compactedThrough(), 6u);
    EXPECT_EQ(log.size(), 10u); // global indices keep counting

    DurableDb after;
    log.applyTo(after);
    ASSERT_EQ(after.size(), before.size());
    for (const auto &[k, rec] : before) {
        EXPECT_EQ(after[k].value, rec.value) << "key " << k;
        EXPECT_EQ(after[k].ts, rec.ts) << "key " << k;
    }
}

TEST(DurableLogCompaction, SnapshotKeepsNewestPerKey)
{
    DurableLog log;
    log.append({5, 1, Timestamp{0, 0}});
    log.append({5, 2, Timestamp{1, 0}});
    log.append({5, 3, Timestamp{2, 0}});
    log.compact(3);
    // The snapshot holds one entry per key: the newest.
    auto shipped = log.exportSince(0);
    ASSERT_EQ(shipped.size(), 1u);
    EXPECT_EQ(shipped[0].value, 3u);
    EXPECT_EQ(shipped[0].ts, (Timestamp{2, 0}));
}

TEST(DurableLogCompaction, ExportCombinesSnapshotAndSuffix)
{
    DurableLog log;
    log.append({1, 10, Timestamp{0, 0}});
    log.append({2, 20, Timestamp{0, 1}});
    log.compact(2);
    log.append({1, 11, Timestamp{1, 0}});

    auto shipped = log.exportSince(0);
    EXPECT_EQ(shipped.size(), 3u); // 2 snapshot keys + 1 suffix entry
    DurableDb db;
    applyEntries(db, shipped);
    EXPECT_EQ(db[1].value, 11u);
    EXPECT_EQ(db[2].value, 20u);

    // A suffix-only export skips the snapshot.
    auto suffix = log.exportSince(2);
    ASSERT_EQ(suffix.size(), 1u);
    EXPECT_EQ(suffix[0].value, 11u);
}

TEST(DurableLogCompaction, AppendsContinueAfterCompaction)
{
    DurableLog log;
    log.append({1, 10, Timestamp{0, 0}});
    log.compact(1);
    EXPECT_EQ(log.append({1, 11, Timestamp{1, 0}}), 1u);
    EXPECT_EQ(log.entryAt(1).value, 11u);
    EXPECT_TRUE(log.entriesSince(2).empty());
}

TEST(DurableLogCompaction, IdempotentAndPartial)
{
    DurableLog log;
    for (int i = 0; i < 4; ++i)
        log.append({static_cast<kv::Key>(i), 1u, Timestamp{i, 0}});
    log.compact(2);
    log.compact(2); // no-op
    log.compact(1); // already past; no-op
    EXPECT_EQ(log.compactedThrough(), 2u);
    log.compact(4);
    EXPECT_EQ(log.compactedThrough(), 4u);
    DurableDb db;
    log.applyTo(db);
    EXPECT_EQ(db.size(), 4u);
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
    DurableLog log;
    std::vector<std::vector<LogEntry>> issued(keys);
    auto compare = [&] {
        DurableDb want;
        log.applyTo(want);
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
            log.append(e);
        }
        if (step % 20'000 == 0)
            compare();
    }
    compare();
    EXPECT_EQ(durable.size(), log.size());
    EXPECT_GT(durable.peakLagging(), 50u);
}
