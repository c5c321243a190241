#include "obs/metrics.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace minos::obs {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    // %.17g round-trips any double, and identical values format
    // identically — the determinism the metrics JSON test pins.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
MetricsRegistry::counter(const std::string &name, std::uint64_t value)
{
    counters_[name] = value;
}

void
MetricsRegistry::gauge(const std::string &name, double value)
{
    gauges_[name] = value;
}

void
MetricsRegistry::histogram(const std::string &name,
                           const stats::LatencySeries &series)
{
    histograms_[name] = HistSummary{series.count(),
                                    series.mean(),
                                    series.p50(),
                                    series.percentile(95.0),
                                    series.p99(),
                                    series.min(),
                                    series.max()};
}

bool
MetricsRegistry::empty() const
{
    return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void
MetricsRegistry::clear()
{
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

std::string
MetricsRegistry::json() const
{
    std::ostringstream os;
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, v] : counters_) {
        os << (first ? "" : ",") << '"' << jsonEscape(name) << "\":"
           << v;
        first = false;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, v] : gauges_) {
        os << (first ? "" : ",") << '"' << jsonEscape(name) << "\":"
           << jsonNumber(v);
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms_) {
        os << (first ? "" : ",") << '"' << jsonEscape(name)
           << "\":{\"count\":" << h.count
           << ",\"mean\":" << jsonNumber(h.mean) << ",\"p50\":" << h.p50
           << ",\"p95\":" << h.p95 << ",\"p99\":" << h.p99
           << ",\"min\":" << h.min << ",\"max\":" << h.max << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

void
registerEventCore(MetricsRegistry &reg, const std::string &prefix,
                  const stats::EventCoreCounters &c)
{
    reg.counter(prefix + "events_executed", c.eventsExecuted);
    reg.counter(prefix + "ready_ring_hits", c.readyRingHits);
    reg.counter(prefix + "heap_pushes", c.heapPushes);
    reg.gauge(prefix + "peak_heap_size",
              static_cast<double>(c.peakHeapSize));
    reg.gauge(prefix + "peak_ring_size",
              static_cast<double>(c.peakRingSize));
    reg.gauge(prefix + "ring_hit_rate", c.ringHitRate());
    reg.counter(prefix + "predicate_tests", c.predicateTests);
}

} // namespace minos::obs
