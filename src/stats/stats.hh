/**
 * @file
 * Measurement helpers for the evaluation harness: latency series with
 * percentiles, throughput computation, and the communication/computation
 * breakdown of Fig. 4.
 */

#ifndef MINOS_STATS_STATS_HH
#define MINOS_STATS_STATS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace minos::stats {

/**
 * A series of latency samples with summary statistics, kept as an exact
 * (value, count) histogram: every statistic is a function of the sample
 * multiset, so percentiles, min, max, mean and digest() equal those of
 * the full sample vector while the series holds one 8-byte word per
 * distinct value instead of one per sample.
 *
 * The words live in one vector: a prefix of runs sorted by value, then
 * the words added since the last compaction. A sample whose value has
 * a run in the prefix (found by binary search), or a word that a small
 * direct-mapped index (value hash -> word position) remembers, only
 * bumps that word's count; any other sample is pushed as a word of its
 * own. A compaction (once the unsorted suffix is as long as the prefix, or
 * before a query) sorts the suffix, merges it into the prefix and folds
 * equal values into one run. A word always stands for at least one
 * sample and the vector only grows by push_back, so it never holds
 * more, nor reserves more, than a vector of every sample would (the
 * merge may borrow a buffer of up to half the words for its duration).
 *
 * Samples must lie in [-2^47, 2^47) ns (±39 hours).
 */
class LatencySeries
{
  public:
    void add(Tick sample);

    /**
     * Also keep the samples in arrival order, for samples() (tests that
     * compare two runs sample by sample). @pre the series is empty
     */
    void keepOrder();

    std::size_t count() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Arithmetic mean; 0 when empty. Exact while the integer sum of
     *  the samples stays below 2^53, whatever their order. */
    double mean() const;

    /** Min/max; 0 when empty. */
    Tick min() const;
    Tick max() const;

    /** Percentile in [0, 100]; 0 when empty. */
    Tick percentile(double p) const;

    Tick p50() const { return percentile(50.0); }
    Tick p99() const { return percentile(99.0); }

    /** Merge another series into this one. An order-keeping series
     *  takes only an order-keeping (or empty) one. */
    void merge(const LatencySeries &other);

    /**
     * Order-insensitive FNV-1a digest of the samples: the count, then
     * every sample in ascending order. Two runs with identical sample
     * multisets digest equal; used by determinism regression tests.
     */
    std::uint64_t digest() const;

    /** The samples in arrival order. @pre keepOrder() was called */
    const std::vector<Tick> &samples() const;

    /** Heap bytes the series has reserved. */
    std::size_t footprintBytes() const;

  private:
    /** Append one word to the unsorted suffix, compacting first when
     *  the suffix is full. */
    void push(std::uint64_t word);
    void compact() const;

    /** Sorted runs, then unsorted single samples; see the class note. */
    mutable std::vector<std::uint64_t> words_;
    /** words_[0, sorted_) are runs sorted by value, one per value. */
    mutable std::size_t sorted_ = 0;
    static constexpr int recentIndexBits = 8;
    /** By value hash, the position of the word that last counted a
     *  sample; a stale entry (past the end, or another value since a
     *  compaction moved the words) is only a miss. */
    std::array<std::uint32_t, std::size_t{1} << recentIndexBits>
        recentIndex_{};
    std::size_t count_ = 0;
    std::int64_t sum_ = 0;
    bool keepOrder_ = false;
    std::vector<Tick> ordered_;
};

/** Operations per second given a count and a simulated duration. */
double opsPerSec(std::uint64_t ops, Tick duration);

/**
 * Communication/computation split of write-transaction latency
 * (paper §IV): communication is the host-send-queue to host-receive-queue
 * time of the protocol's messages along the critical path; the rest of
 * the transaction is computation.
 */
struct Breakdown
{
    double commNs = 0;
    double compNs = 0;
    std::uint64_t count = 0;

    void
    add(double comm, double comp)
    {
        commNs += comm;
        compNs += comp;
        ++count;
    }

    double meanComm() const { return count ? commNs / count : 0.0; }
    double meanComp() const { return count ? compNs / count : 0.0; }
    double meanTotal() const { return meanComm() + meanComp(); }

    /** Fraction of total latency spent in communication, in [0,1]. */
    double commFraction() const;
};

/**
 * Snapshot of the discrete-event simulator's event-core counters
 * (sim::Simulator::counters()): how much traffic the same-tick ready
 * ring absorbed vs. the timed heap, and the high-water marks of both.
 * Lives here so measurement/reporting code (benches, tools, the metrics
 * registry) reads it in one shape.
 */
struct EventCoreCounters
{
    std::uint64_t eventsExecuted = 0;
    std::uint64_t readyRingHits = 0;
    std::uint64_t heapPushes = 0;
    std::uint64_t peakHeapSize = 0;
    std::uint64_t peakRingSize = 0;
    /** Waiter predicates evaluated by wakeups (not by the first test
     *  at the wait itself): the host cost of the wait herd. */
    std::uint64_t predicateTests = 0;

    /** Fraction of executed events that bypassed the heap, in [0,1]. */
    double ringHitRate() const;

    bool operator==(const EventCoreCounters &) const = default;
};

/** Fixed-width console table writer used by the bench binaries. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns. */
    std::string str() const;

    /** Format helper: fixed-point with @p digits decimals. */
    static std::string fmt(double v, int digits = 2);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace minos::stats

#endif // MINOS_STATS_STATS_HH
