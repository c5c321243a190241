#include "simulator.hh"

#include <coroutine>

#include "common/logging.hh"
#include "sim/process.hh"

namespace minos::sim {

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
Simulator::ReadyRing::grow()
{
    std::size_t cap = buf_.empty() ? 64 : buf_.size() * 2;
    std::vector<ReadyEvent> next(cap);
    std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i)
        next[i] = std::move(buf_[(head_ + i) & mask_]);
    buf_ = std::move(next);
    head_ = 0;
    tail_ = n;
    mask_ = cap - 1;
}

void
Simulator::pushReady(EventFn fn)
{
    ring_.push(ReadyEvent{seq_++, std::move(fn)});
    peakRing_ = std::max(peakRing_, ring_.size());
}

void
Simulator::schedule(Tick when, EventFn fn)
{
    MINOS_ASSERT(when >= now_, "scheduling into the past: ", when,
                 " < ", now_);
    if (when == now_) {
        // Same-tick events (the ubiquitous `after(0, ...)` wakeup) skip
        // the heap; FIFO ring order is exactly their seq order.
        pushReady(std::move(fn));
        return;
    }
    heap_.push(when, seq_++, std::move(fn));
    ++heapPushes_;
    peakHeap_ = std::max(peakHeap_, heap_.size());
}

void
Simulator::after(Tick delay, EventFn fn)
{
    MINOS_ASSERT(delay >= 0, "negative delay: ", delay);
    schedule(now_ + delay, std::move(fn));
}

void
Simulator::step()
{
    // Ring entries are all due at now_; the heap may still hold events
    // at now_ that were scheduled *earlier* (smaller seq) from a past
    // tick. Comparing seqs preserves the exact (when, seq) dispatch
    // order the pre-ring implementation had.
    bool from_heap;
    if (ring_.empty())
        from_heap = true;
    else if (heap_.empty())
        from_heap = false;
    else {
        const TimerHeap::Key &t = heap_.top();
        from_heap = t.when == now_ && t.seq < ring_.front().seq;
    }

    if (from_heap) {
        now_ = heap_.top().when;
        EventFn fn = heap_.popTop();
        ++executed_;
        fn();
    } else {
        ReadyEvent ev = ring_.pop();
        ++executed_;
        ++ringHits_;
        ev.fn();
    }
}

void
Simulator::run()
{
    while (!ring_.empty() || !heap_.empty())
        step();
}

bool
Simulator::runUntil(Tick limit)
{
    for (;;) {
        if (ring_.empty()) {
            if (heap_.empty())
                return true;
            if (heap_.top().when > limit) {
                now_ = limit;
                return false;
            }
        }
        step();
    }
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
