#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace minos::stats {

namespace {

// A word is (sample + sampleBias) << countBits | count, count >= 1: words
// order by sample, and one word holds up to maxRunCount equal samples.
constexpr int countBits = 16;
constexpr std::uint64_t maxRunCount = (1u << countBits) - 1;
constexpr Tick sampleBias = Tick{1} << 47;
// The unsorted suffix is compacted once it is this long and at least as
// long as the sorted prefix, so each sample is sorted O(log n) times.
constexpr std::size_t minUnsorted = 512;

std::uint64_t
runWord(Tick sample, std::uint64_t count)
{
    return static_cast<std::uint64_t>(sample + sampleBias) << countBits |
           count;
}

Tick
runValue(std::uint64_t word)
{
    return static_cast<Tick>(word >> countBits) - sampleBias;
}

std::uint64_t
runCount(std::uint64_t word)
{
    return word & maxRunCount;
}

} // namespace

void
LatencySeries::add(Tick sample)
{
    MINOS_ASSERT(sample >= -sampleBias && sample < sampleBias,
                 "latency sample out of range: ", sample);
    if (keepOrder_)
        ordered_.push_back(sample);
    ++count_;
    sum_ += sample;
    const std::uint64_t w = runWord(sample, 1);
    const std::uint64_t value = w >> countBits;
    // Latencies repeat (an uncontended read takes the same time every
    // time, and a run has far fewer distinct values than samples), so a
    // repeat is counted in the word that already holds its value: the
    // word a small direct-mapped index remembers for it, else its run
    // in the sorted prefix. Only a new value is pushed and later sorted.
    std::uint32_t &recent =
        recentIndex_[static_cast<std::uint64_t>(sample) *
                         0x9e3779b97f4a7c15ull >>
                     (64 - recentIndexBits)];
    if (recent < words_.size() &&
        (words_[recent] >> countBits) == value &&
        runCount(words_[recent]) < maxRunCount) {
        ++words_[recent];
        return;
    }
    if (sorted_ > 0) {
        // Branchless search for the last run whose value is <= value:
        // the one with room, if an overflowing value spans two words.
        const std::uint64_t *base = words_.data();
        for (std::size_t len = sorted_; len > 1;) {
            const std::size_t half = len / 2;
            base += (base[half] >> countBits) <= value ? half : 0;
            len -= half;
        }
        if ((*base >> countBits) == value && runCount(*base) < maxRunCount) {
            recent = static_cast<std::uint32_t>(base - words_.data());
            ++words_[recent];
            return;
        }
    }
    push(w);
    recent = static_cast<std::uint32_t>(words_.size() - 1);
}

void
LatencySeries::push(std::uint64_t word)
{
    if (words_.size() - sorted_ >= std::max(minUnsorted, sorted_))
        compact();
    words_.push_back(word);
}

void
LatencySeries::keepOrder()
{
    MINOS_ASSERT(empty(), "keepOrder() on a series with samples");
    keepOrder_ = true;
}

void
LatencySeries::compact() const
{
    if (sorted_ == words_.size())
        return;
    auto byValue = [](std::uint64_t a, std::uint64_t b) {
        return (a >> countBits) < (b >> countBits);
    };
    const auto mid = words_.begin() + static_cast<std::ptrdiff_t>(sorted_);
    std::sort(mid, words_.end(), byValue);
    std::inplace_merge(words_.begin(), mid, words_.end(), byValue);
    // Fold equal values into runs; a run that would overflow its count
    // field is filled and the rest starts the next word.
    std::size_t out = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
        std::uint64_t w = words_[i];
        if (out > 0 &&
            (words_[out - 1] >> countBits) == (w >> countBits)) {
            std::uint64_t &run = words_[out - 1];
            std::uint64_t moved =
                std::min(runCount(w), maxRunCount - runCount(run));
            run += moved;
            w -= moved;
            if (runCount(w) == 0)
                continue;
        }
        words_[out++] = w;
    }
    words_.resize(out);
    sorted_ = out;
}

double
LatencySeries::mean() const
{
    if (empty())
        return 0.0;
    return static_cast<double>(sum_) / static_cast<double>(count_);
}

Tick
LatencySeries::min() const
{
    if (empty())
        return 0;
    compact();
    return runValue(words_.front());
}

Tick
LatencySeries::max() const
{
    if (empty())
        return 0;
    compact();
    return runValue(words_.back());
}

Tick
LatencySeries::percentile(double p) const
{
    if (empty())
        return 0;
    MINOS_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    compact();
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    if (rank > 0)
        --rank;
    rank = std::min(rank, count_ - 1);
    std::size_t seen = 0;
    for (std::uint64_t w : words_) {
        seen += runCount(w);
        if (rank < seen)
            return runValue(w);
    }
    MINOS_PANIC("histogram holds fewer samples than its count");
}

void
LatencySeries::merge(const LatencySeries &other)
{
    if (keepOrder_) {
        MINOS_ASSERT(other.keepOrder_ || other.empty(),
                     "merging an unordered series into an ordered one");
        ordered_.insert(ordered_.end(), other.ordered_.begin(),
                        other.ordered_.end());
    }
    count_ += other.count_;
    sum_ += other.sum_;
    for (std::uint64_t w : other.words_)
        push(w);
}

const std::vector<Tick> &
LatencySeries::samples() const
{
    MINOS_ASSERT(keepOrder_, "samples() of a series without keepOrder()");
    return ordered_;
}

std::size_t
LatencySeries::footprintBytes() const
{
    return words_.capacity() * sizeof(std::uint64_t) +
           ordered_.capacity() * sizeof(Tick);
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
    compact();
    std::uint64_t h = 1469598103934665603ull; // FNV-1a offset basis
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(count_);
    for (std::uint64_t w : words_)
        for (std::uint64_t c = runCount(w); c > 0; --c)
            mix(static_cast<std::uint64_t>(runValue(w)));
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
