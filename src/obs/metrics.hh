/**
 * @file
 * The metrics registry: a name -> {counter, gauge, histogram} map with
 * one JSON serializer shared by tools/minos_sim (--metrics-out) and the
 * figure benches (bench/figures prints one MINOS_METRICS blob per figure,
 * and tools/experiments.py renders the tables from them).
 *
 * The registry is a *sink*, not a live instrument: subsystems publish
 * snapshots of their own counter structs at the end of a run
 * (NodeCounters::registerInto, registerEventCore, FIFO peaks, phase
 * histograms), so the hot paths keep their plain struct fields and the
 * registry costs nothing while the simulation runs. Names are stored in
 * ordered maps, so serialization order — and therefore the emitted JSON
 * byte stream — is deterministic for identical runs.
 */

#ifndef MINOS_OBS_METRICS_HH
#define MINOS_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <string>

#include "common/units.hh"
#include "stats/stats.hh"

namespace minos::obs {

/** Deterministically ordered name -> value metric sink. */
class MetricsRegistry
{
  public:
    /** Publish a monotonically-counting value (events, ops, drops). */
    void counter(const std::string &name, std::uint64_t value);

    /** Publish a point-in-time level (depth, rate, fraction). */
    void gauge(const std::string &name, double value);

    /** Publish the summary of a latency series. */
    void histogram(const std::string &name,
                   const stats::LatencySeries &series);

    bool empty() const;
    void clear();

    /**
     * Serialize as one JSON object:
     * {"counters":{...},"gauges":{...},"histograms":{name:
     *  {"count":..,"mean":..,"p50":..,"p95":..,"p99":..,
     *   "min":..,"max":..}}}.
     * Key order follows the ordered maps, so identical registries
     * serialize byte-identically.
     */
    std::string json() const;

  private:
    struct HistSummary
    {
        std::uint64_t count = 0;
        double mean = 0;
        Tick p50 = 0;
        Tick p95 = 0;
        Tick p99 = 0;
        Tick min = 0;
        Tick max = 0;
    };

    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, HistSummary> histograms_;
};

/** Publish the event-core counters under @p prefix ("sim." etc.). */
void registerEventCore(MetricsRegistry &reg, const std::string &prefix,
                       const stats::EventCoreCounters &c);

/** JSON-escape @p s (quotes, backslashes, control characters). */
std::string jsonEscape(const std::string &s);

/** Render a finite double as a JSON number (non-finite becomes 0). */
std::string jsonNumber(double v);

} // namespace minos::obs

#endif // MINOS_OBS_METRICS_HH
