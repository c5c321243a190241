#include "simulator.hh"

#include <bit>
#include <coroutine>
#include <cstring>
#include <limits>

#include "common/logging.hh"
#include "sim/process.hh"

namespace minos::sim {

Simulator::Simulator() : buckets_(wheelSpan) { growCells(); }

Simulator::~Simulator()
{
    // Reclaim frames of processes still suspended (e.g. server loops that
    // wait forever on a mailbox).
    while (live_.next != &live_) {
        auto &promise = static_cast<Process::promise_type &>(*live_.next);
        unregisterFrame(promise);
        std::coroutine_handle<Process::promise_type>::from_promise(promise)
            .destroy();
    }
}

void *
FramePool::allocateFresh(std::size_t c)
{
    static thread_local Reaper reaper;
    (void)reaper;
    return ::operator new((c + 1) * granule);
}

FramePool::Reaper::~Reaper()
{
    for (Block *&head : heads_) {
        while (Block *b = head) {
            head = b->next;
            ::operator delete(b);
        }
    }
    closed_ = true;
}

void
Simulator::growCells()
{
    chunks_.push_back(std::make_unique<EventFn[]>(cellsPerChunk));
    EventFn *chunk = chunks_.back().get();
    freeCells_.reserve(chunks_.size() * cellsPerChunk);
    for (std::size_t k = cellsPerChunk; k-- > 0;)
        freeCells_.push_back(chunk + k);
}

void
Simulator::pushWheel(Tick when, std::uint32_t i, bool same_tick)
{
    Node &n = nodes_[i];
    n.next = noNode;
    n.sameTick = same_tick;

    // Every pending wheel event is due in [now_, now_ + wheelSpan), so a
    // bucket only ever holds one tick, and appending keeps it in
    // scheduling order.
    std::size_t b = static_cast<std::size_t>(when) & wheelMask;
    std::uint64_t bit = std::uint64_t{1} << (b % 64);
    Bucket &bucket = buckets_[b];
    if (bitmap_[b / 64] & bit) {
        nodes_[bucket.tail].next = i;
        bucket.tail = i;
    } else {
        bitmap_[b / 64] |= bit;
        bucket = Bucket{i, i};
    }
    ++wheelEvents_;
}

void
Simulator::pushNow(std::uint32_t i)
{
    pushWheel(now_, i, true);
    peakRing_ = std::max(peakRing_, ++pendingNow_);
}

void
Simulator::place(Tick when, std::uint32_t i)
{
    MINOS_ASSERT(when >= now_, "scheduling into the past: ", when,
                 " < ", now_);
    if (when == now_) {
        pushNow(i);
        return;
    }
    if (when - now_ < wheelSpan)
        pushWheel(when, i, false);
    else
        far_.push(when, seq_++, i);
    ++heapPushes_;
    peakHeap_ = std::max(peakHeap_, ++pendingLater_);
}

void
Simulator::placeAfter(Tick delay, std::uint32_t i)
{
    MINOS_ASSERT(delay >= 0, "negative delay: ", delay);
    place(now_ + delay, i);
}

std::size_t
Simulator::nextBucket() const
{
    // Scan forward from now_'s bucket. Buckets before it, reached after
    // wrapping around, hold the latest ticks of the window.
    std::size_t start = static_cast<std::size_t>(now_) & wheelMask;
    std::size_t w = start / 64;
    std::uint64_t bits = bitmap_[w] & (~std::uint64_t{0} << (start % 64));
    while (bits == 0) {
        w = (w + 1) % bitmapWords;
        bits = bitmap_[w];
    }
    return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

std::uint32_t
Simulator::popBucket(std::size_t b)
{
    Bucket &bucket = buckets_[b];
    std::uint32_t i = bucket.head;
    const Node &n = nodes_[i];
    bucket.head = n.next;
    if (n.next == noNode)
        bitmap_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
    --wheelEvents_;
    if (n.sameTick) {
        --pendingNow_;
        ++ringHits_;
    } else {
        --pendingLater_;
    }
    return i;
}

void
Simulator::dispatch(std::uint32_t i)
{
    // The node is freed before its event runs, which may schedule more
    // and so grow (move) the pool: take the payload out first.
    Node &n = nodes_[i];
    n.next = freeNode_;
    freeNode_ = i;
    switch (n.kind) {
    case Kind::Resume:
        std::coroutine_handle<>::from_address(n.frame).resume();
        return;
    case Kind::Inline: {
        alignas(void *) unsigned char bytes[nodeInlineBytes];
        std::memcpy(bytes, n.bytes, sizeof bytes);
        void (*invoke)(void *) = n.invoke;
        invoke(bytes);
        return;
    }
    case Kind::Cell: {
        // The cell stays taken while it runs, so nothing the event
        // schedules can reuse it.
        EventFn *cell = n.cell;
        (*cell)();
        cell->reset();
        freeCells_.push_back(cell);
        return;
    }
    }
}

bool
Simulator::step(Tick limit)
{
    bool from_wheel = wheelEvents_ != 0;
    if (!from_wheel && far_.empty())
        return false;
    std::size_t b = 0;
    Tick when = std::numeric_limits<Tick>::max();
    if (from_wheel) {
        b = nextBucket();
        when = now_ + static_cast<Tick>(
                          (b - static_cast<std::size_t>(now_)) & wheelMask);
    }
    // A far event due at the same tick as a wheel event was scheduled
    // earlier (it was at least wheelSpan ticks out then, the wheel event
    // less), so its seq is smaller: it goes first.
    if (!far_.empty() && far_.top().when <= when) {
        from_wheel = false;
        when = far_.top().when;
    }
    if (when > limit)
        return false;

    now_ = when;
    std::uint32_t i;
    if (from_wheel) {
        i = popBucket(b);
    } else {
        i = far_.popTop();
        --pendingLater_;
    }
    ++executed_;
    dispatch(i);
    return true;
}

void
Simulator::run()
{
    while (step(std::numeric_limits<Tick>::max())) {
    }
}

bool
Simulator::runUntil(Tick limit)
{
    limit = std::max(limit, now_);
    while (step(limit)) {
    }
    if (pendingEvents() == 0)
        return true;
    now_ = limit;
    return false;
}

void
Simulator::spawn(Process proc)
{
    auto handle = proc.release();
    MINOS_ASSERT(handle, "spawning an empty Process");
    handle.promise().sim = this;
    registerFrame(handle.promise());
    resumeSoon(handle);
}

} // namespace minos::sim
