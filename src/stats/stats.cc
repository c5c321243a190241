#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/logging.hh"

namespace minos::stats {

void
LatencySeries::add(Tick sample)
{
    if (!samples_.empty() && sample < samples_.back())
        sorted_ = false;
    samples_.push_back(sample);
}

double
LatencySeries::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = std::accumulate(samples_.begin(), samples_.end(), 0.0);
    return sum / static_cast<double>(samples_.size());
}

Tick
LatencySeries::min() const
{
    if (samples_.empty())
        return 0;
    return *std::min_element(samples_.begin(), samples_.end());
}

Tick
LatencySeries::max() const
{
    if (samples_.empty())
        return 0;
    return *std::max_element(samples_.begin(), samples_.end());
}

Tick
LatencySeries::percentile(double p) const
{
    if (samples_.empty())
        return 0;
    MINOS_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples_.size())));
    if (rank > 0)
        --rank;
    return samples_[std::min(rank, samples_.size() - 1)];
}

void
LatencySeries::merge(const LatencySeries &other)
{
    for (Tick t : other.samples_)
        add(t);
}

double
opsPerSec(std::uint64_t ops, Tick duration)
{
    if (duration <= 0)
        return 0.0;
    return static_cast<double>(ops) * 1e9 /
           static_cast<double>(duration);
}

double
Breakdown::commFraction() const
{
    double total = commNs + compNs;
    return total > 0 ? commNs / total : 0.0;
}

std::uint64_t
LatencySeries::digest() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    std::uint64_t h = 1469598103934665603ull; // FNV-1a offset basis
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(samples_.size());
    for (Tick s : samples_)
        mix(static_cast<std::uint64_t>(s));
    return h;
}

double
EventCoreCounters::ringHitRate() const
{
    if (eventsExecuted == 0)
        return 0.0;
    return static_cast<double>(readyRingHits) /
           static_cast<double>(eventsExecuted);
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    MINOS_ASSERT(cells.size() == headers_.size(),
                 "row width ", cells.size(), " != header width ",
                 headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::str() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << row[c];
            if (c + 1 < row.size())
                os << std::string(widths[c] - row[c].size() + 2, ' ');
        }
        os << "\n";
    };
    emit(headers_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
    for (const auto &row : rows_)
        emit(row);
    return os.str();
}

std::string
Table::fmt(double v, int digits)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(digits);
    os << v;
    return os.str();
}

} // namespace minos::stats
