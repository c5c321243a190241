/**
 * @file
 * Measurement helpers for the evaluation harness: latency series with
 * percentiles, throughput computation, and the communication/computation
 * breakdown of Fig. 4.
 */

#ifndef MINOS_STATS_STATS_HH
#define MINOS_STATS_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace minos::stats {

/** A series of latency samples with summary statistics. */
class LatencySeries
{
  public:
    void add(Tick sample);

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /** Arithmetic mean; 0 when empty. */
    double mean() const;

    /** Min/max; 0 when empty. */
    Tick min() const;
    Tick max() const;

    /** Percentile in [0, 100]; 0 when empty. Sorts lazily. */
    Tick percentile(double p) const;

    Tick p50() const { return percentile(50.0); }
    Tick p99() const { return percentile(99.0); }

    /** Merge another series into this one. */
    void merge(const LatencySeries &other);

    /**
     * Order-insensitive FNV-1a digest of the samples (sorts lazily,
     * like percentile()). Two runs with identical sample multisets
     * digest equal; used by determinism regression tests.
     */
    std::uint64_t digest() const;

    const std::vector<Tick> &samples() const { return samples_; }

  private:
    mutable std::vector<Tick> samples_;
    mutable bool sorted_ = true;
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
