/**
 * @file
 * Unit tests of the engines' pending-transaction store: the recycled
 * slab, its hold counts and generations, and the open-addressing index
 * (simproto/txn_slab.hh).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "simproto/txn_slab.hh"

using namespace minos;
using namespace minos::simproto;

namespace {

struct Rec
{
    std::uint64_t value = 0;
};

using Slab = TxnSlab<Rec>;

/** @p n distinct keys whose home is index slot @p home. */
std::vector<TxnKey>
keysWithHome(const Slab &slab, std::size_t home, std::size_t n)
{
    std::vector<TxnKey> keys;
    for (std::uint64_t k = 1; keys.size() < n; ++k) {
        TxnKey key{k, 7};
        if ((Slab::hashOf(key) & (slab.indexSlots() - 1)) == home)
            keys.push_back(key);
    }
    return keys;
}

} // namespace

TEST(TxnSlab, RandomOpsMatchUnorderedMap)
{
    // A small key space keeps the index dense (up to its 3/4 growth
    // point), so probe runs are long, wrap past the last slot and are
    // erased from the middle.
    Slab slab;
    std::unordered_map<TxnKey, std::uint64_t, TxnKeyHash> ref;
    std::mt19937_64 rng(2024);
    for (std::uint64_t step = 1; step <= 200'000; ++step) {
        TxnKey key{rng() % 24, rng() % 3};
        switch (rng() % 3) {
          case 0: {
            Slab::Hold h = slab.insert(key);
            bool fresh = ref.emplace(key, step).second;
            ASSERT_EQ(static_cast<bool>(h), fresh);
            if (h)
                h->value = step;
            break;
          }
          case 1: {
            Slab::Hold h = slab.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(static_cast<bool>(h), it != ref.end());
            if (h) {
                ASSERT_EQ(h->value, it->second);
            }
            break;
          }
          default:
            ASSERT_EQ(slab.erase(key), ref.erase(key) == 1);
            break;
        }
        ASSERT_EQ(slab.size(), ref.size());
        ASSERT_EQ(slab.live(), ref.size());
    }
    for (const auto &[key, value] : ref) {
        Slab::Hold h = slab.find(key);
        ASSERT_TRUE(h);
        EXPECT_EQ(h->value, value);
    }
}

TEST(TxnSlab, ProbeRunWrapsAndSurvivesMiddleErase)
{
    Slab slab;
    const std::size_t last = slab.indexSlots() - 1;
    // Three keys homed on the last slot occupy it and wrap to 0 and 1;
    // a key homed on slot 0 lands behind them, at 2.
    std::vector<TxnKey> run = keysWithHome(slab, last, 3);
    run.push_back(keysWithHome(slab, 0, 1).front());
    for (std::size_t i = 0; i < run.size(); ++i)
        slab.insert(run[i])->value = i;

    // Erase the wrapped entry in slot 0: backward shift must keep the
    // rest of the run reachable.
    ASSERT_TRUE(slab.erase(run[1]));
    EXPECT_FALSE(slab.find(run[1]));
    for (std::size_t i : {0u, 2u, 3u}) {
        Slab::Hold h = slab.find(run[i]);
        ASSERT_TRUE(h) << "key " << i;
        EXPECT_EQ(h->value, i);
    }
    ASSERT_TRUE(slab.erase(run[0]));
    ASSERT_TRUE(slab.erase(run[3]));
    EXPECT_EQ(slab.find(run[2])->value, 2u);
    ASSERT_TRUE(slab.erase(run[2]));
    EXPECT_EQ(slab.size(), 0u);
    EXPECT_EQ(slab.live(), 0u);
}

TEST(TxnSlab, DuplicateInsertIsRefused)
{
    Slab slab;
    slab.insert({1, 1})->value = 5;
    EXPECT_FALSE(slab.insert({1, 1}));
    EXPECT_EQ(slab.find({1, 1})->value, 5u);
    EXPECT_EQ(slab.size(), 1u);
}

TEST(TxnSlab, RecycledSlotGetsNewGeneration)
{
    Slab slab;
    Slab::Handle first = slab.insert({1, 1}).handle();
    ASSERT_TRUE(slab.erase({1, 1}));
    Slab::Handle second = slab.insert({2, 2}).handle();
    EXPECT_EQ(second.slot, first.slot); // LIFO reuse
    EXPECT_NE(second.gen, first.gen);
    EXPECT_EQ(slab[second].value, 0u) << "a recycled record starts fresh";
}

TEST(TxnSlab, HoldKeepsRetiredRecord)
{
    Slab slab;
    Slab::Hold hold = slab.insert({3, 9});
    hold->value = 42;
    ASSERT_TRUE(slab.erase({3, 9}));
    EXPECT_EQ(slab.size(), 0u);
    EXPECT_EQ(slab.live(), 1u);
    EXPECT_FALSE(slab.find({3, 9}));
    {
        Slab::Hold copy = hold;
        hold = {};
        EXPECT_EQ(copy->value, 42u);
        EXPECT_EQ(slab.live(), 1u);
    }
    EXPECT_EQ(slab.live(), 0u);
}

TEST(TxnSlab, HoldMayOutliveTheSlab)
{
    // Frames and events reclaimed after their engine still hold slots.
    Slab::Hold hold;
    {
        Slab slab;
        slab.insert({5, 5});
        hold = slab.insert({6, 6});
        hold->value = 3;
    }
    EXPECT_EQ(hold->value, 3u);
}

TEST(TxnSlab, GrowthKeepsEveryEntry)
{
    Slab slab;
    const std::size_t n = 4 * slab.indexSlots();
    for (std::uint64_t k = 0; k < n; ++k)
        slab.insert({k, k})->value = k;
    EXPECT_GT(slab.indexSlots(), n);
    for (std::uint64_t k = 0; k < n; ++k)
        ASSERT_EQ(slab.find({k, k})->value, k);
}

TEST(TxnSlabDeathTest, StaleHandleAsserts)
{
    Slab slab;
    Slab::Handle h = slab.insert({1, 1}).handle();
    ASSERT_TRUE(slab.erase({1, 1}));
    EXPECT_DEATH(slab[h], "stale txn handle");
}
