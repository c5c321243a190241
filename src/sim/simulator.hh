/**
 * @file
 * Discrete-event simulation core.
 *
 * The simulator executes a time-ordered queue of events. Model code is
 * written as C++20 coroutines (see process.hh) so protocol logic reads
 * like the paper's pseudocode: `co_await delay(t)` advances simulated
 * time, `co_await cond.until(pred)` blocks on a condition, and mailboxes
 * model message queues.
 *
 * This is the SimGrid-equivalent substrate used for all MINOS-B and
 * MINOS-O evaluation experiments (paper §VII).
 *
 * Event-core layout (see DESIGN.md "Event core"):
 *  - events are EventFn (SBO callable / raw coroutine resume; event.hh),
 *    so steady-state dispatch performs zero heap allocations;
 *  - events scheduled for the *current* tick go to a FIFO ready ring
 *    and bypass the heap entirely (the `after(0, ...)` wakeup pattern
 *    used by every condition/mailbox notification);
 *  - future events live in a 4-ary min-heap of (when, seq, slot) keys
 *    over a recycled slab of EventFns, so sifts never move callables.
 * Dispatch order is exactly (when, seq) — FIFO within a tick — which is
 * the documented determinism contract; the ring is an ordering-exact
 * bypass, not a reordering.
 */

#ifndef MINOS_SIM_SIMULATOR_HH
#define MINOS_SIM_SIMULATOR_HH

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "sim/event.hh"
#include "stats/stats.hh"

namespace minos::sim {

class Process;

/**
 * Intrusive doubly linked list node. A spawned Process's promise is one,
 * so the simulator tracks live frames with O(1) pointer splices and no
 * allocation.
 */
struct LiveLink
{
    LiveLink *prev = nullptr;
    LiveLink *next = nullptr;
};

/**
 * The discrete-event simulator: a two-stage event queue (same-tick
 * ready ring + timed 4-ary heap) plus the registry of live coroutine
 * processes.
 *
 * Events scheduled for the same tick run in scheduling (FIFO) order,
 * which keeps runs fully deterministic.
 */
class Simulator
{
  public:
    Simulator() = default;
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p fn to run at absolute time @p when (>= now). */
    void schedule(Tick when, EventFn fn);

    /** Schedule @p fn to run @p delay ticks from now. */
    void after(Tick delay, EventFn fn);

    /** @{
     * Coroutine fast path: schedule a raw resume with no closure.
     * resumeSoon() is the `after(0, ...)` wakeup — it goes straight to
     * the ready ring.
     */
    void
    resumeAfter(Tick delay, std::coroutine_handle<> h)
    {
        after(delay, EventFn::resume(h));
    }

    void resumeSoon(std::coroutine_handle<> h)
    {
        pushReady(EventFn::resume(h));
    }
    /** @} */

    /** Run until the event queue is empty. */
    void run();

    /**
     * Run until the event queue is empty or simulated time would pass
     * @p limit.
     * @return true if the queue drained, false if the limit was hit.
     */
    bool runUntil(Tick limit);

    /** Start a detached coroutine process (see process.hh). */
    void spawn(Process proc);

    /** Number of processes that have started but not finished. */
    std::size_t numLiveProcesses() const { return numLive_; }

    /** Total events executed so far (for tests and sanity checks). */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** Events dispatched through the same-tick ready ring. */
    std::uint64_t readyRingHits() const { return ringHits_; }

    /** Events that went through the timed heap. */
    std::uint64_t heapPushes() const { return heapPushes_; }

    /** High-water marks of the two queues. */
    std::size_t peakHeapSize() const { return peakHeap_; }
    std::size_t peakRingSize() const { return peakRing_; }

    /** Snapshot of the event-core counters (stats/stats.hh). */
    stats::EventCoreCounters
    counters() const
    {
        return {executed_, ringHits_, heapPushes_,
                static_cast<std::uint64_t>(peakHeap_),
                static_cast<std::uint64_t>(peakRing_)};
    }

    /** Events currently queued (ring + heap). */
    std::size_t
    pendingEvents() const
    {
        return ring_.size() + heap_.size();
    }

    /** @{ Internal: live-process list used by the coroutine glue. */
    void
    registerFrame(LiveLink &l)
    {
        l.prev = live_.prev;
        l.next = &live_;
        live_.prev->next = &l;
        live_.prev = &l;
        ++numLive_;
    }

    void
    unregisterFrame(LiveLink &l)
    {
        l.prev->next = l.next;
        l.next->prev = l.prev;
        --numLive_;
    }
    /** @} */

  private:
    /** Ring-ring entry: the tick is implicitly the current one. */
    struct ReadyEvent
    {
        std::uint64_t seq;
        EventFn fn;
    };

    /**
     * 4-ary min-heap of small (when, seq, slot) keys over a slab of
     * EventFns. Sifts move 24-byte keys, never the callables; a popped
     * event's slot is recycled for the next push, so the slab and its
     * free list only grow. Order is exactly (when, seq): the slot index
     * takes no part in the comparison.
     */
    class TimerHeap
    {
      public:
        struct Key
        {
            Tick when;
            std::uint64_t seq;
            std::uint32_t slot;
        };

        bool empty() const { return keys_.empty(); }
        std::size_t size() const { return keys_.size(); }
        const Key &top() const { return keys_.front(); }

        void
        push(Tick when, std::uint64_t seq, EventFn &&fn)
        {
            std::uint32_t slot;
            if (free_.empty()) {
                slot = static_cast<std::uint32_t>(slab_.size());
                slab_.push_back(std::move(fn));
            } else {
                slot = free_.back();
                free_.pop_back();
                slab_[slot] = std::move(fn);
            }
            keys_.push_back(Key{when, seq, slot});
            siftUp(keys_.size() - 1);
        }

        /** Remove the minimum; return its callable (moved out). */
        EventFn
        popTop()
        {
            std::uint32_t slot = keys_.front().slot;
            Key last = keys_.back();
            keys_.pop_back();
            if (!keys_.empty())
                siftDownHole(last);
            free_.push_back(slot);
            return std::move(slab_[slot]);
        }

      private:
        static constexpr std::size_t arity = 4;

        static bool
        before(const Key &a, const Key &b)
        {
            return a.when != b.when ? a.when < b.when : a.seq < b.seq;
        }

        void
        siftUp(std::size_t i)
        {
            Key k = keys_[i];
            while (i > 0) {
                std::size_t parent = (i - 1) / arity;
                if (!before(k, keys_[parent]))
                    break;
                keys_[i] = keys_[parent];
                i = parent;
            }
            keys_[i] = k;
        }

        /** Sift the root hole down, then drop @p last into it. */
        void
        siftDownHole(const Key &last)
        {
            std::size_t i = 0;
            const std::size_t n = keys_.size();
            for (;;) {
                std::size_t first = arity * i + 1;
                if (first >= n)
                    break;
                std::size_t best = first;
                std::size_t end = std::min(first + arity, n);
                for (std::size_t c = first + 1; c < end; ++c)
                    if (before(keys_[c], keys_[best]))
                        best = c;
                if (!before(keys_[best], last))
                    break;
                keys_[i] = keys_[best];
                i = best;
            }
            keys_[i] = last;
        }

        std::vector<Key> keys_;
        std::vector<EventFn> slab_;
        std::vector<std::uint32_t> free_;
    };

    /**
     * Growable power-of-two ring buffer of same-tick events. FIFO; all
     * entries are due at the current tick. Steady state never touches
     * the allocator (it only grows).
     */
    class ReadyRing
    {
      public:
        bool empty() const { return head_ == tail_; }

        std::size_t
        size() const
        {
            return static_cast<std::size_t>(tail_ - head_);
        }

        const ReadyEvent &
        front() const
        {
            return buf_[head_ & mask_];
        }

        void
        push(ReadyEvent &&e)
        {
            if (size() == buf_.size())
                grow();
            buf_[tail_++ & mask_] = std::move(e);
        }

        ReadyEvent
        pop()
        {
            return std::move(buf_[head_++ & mask_]);
        }

      private:
        void grow();

        std::vector<ReadyEvent> buf_;
        std::uint64_t head_ = 0;
        std::uint64_t tail_ = 0;
        std::uint64_t mask_ = 0;
    };

    void pushReady(EventFn fn);

    /** Dispatch the single next event in (when, seq) order. */
    void step();

    TimerHeap heap_;
    ReadyRing ring_;
    /** Sentinel of the circular list of spawned, unfinished frames. */
    LiveLink live_{&live_, &live_};
    std::size_t numLive_ = 0;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t ringHits_ = 0;
    std::uint64_t heapPushes_ = 0;
    std::size_t peakHeap_ = 0;
    std::size_t peakRing_ = 0;
};

} // namespace minos::sim

#endif // MINOS_SIM_SIMULATOR_HH
