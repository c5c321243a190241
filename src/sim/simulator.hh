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
 *  - every event due less than `wheelSpan` ticks from now, the
 *    `after(0, ...)` wakeups included, is appended to a one-tick FIFO
 *    bucket of a timing wheel; a bitmap finds the next non-empty bucket;
 *  - rarer events due further out wait in a 4-ary min-heap of
 *    (when, seq, slot) keys over a recycled slab of EventFns.
 * Dispatch order is exactly (when, seq) — FIFO within a tick — which is
 * the documented determinism contract.
 */

#ifndef MINOS_SIM_SIMULATOR_HH
#define MINOS_SIM_SIMULATOR_HH

#include <algorithm>
#include <array>
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
 * The discrete-event simulator: a timing wheel for near events and a
 * 4-ary heap for far ones, plus the registry of live coroutine processes.
 *
 * Events scheduled for the same tick run in scheduling (FIFO) order,
 * which keeps runs fully deterministic.
 */
class Simulator
{
  public:
    /**
     * Ticks covered by the timing wheel: an event due less than this far
     * ahead skips the far heap. It covers every delay the default
     * configurations schedule.
     */
    static constexpr Tick wheelSpan = 16384;

    Simulator();
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
     * resumeSoon() is the `after(0, ...)` wakeup: it joins the current
     * tick's bucket behind the events already due now.
     */
    void
    resumeAfter(Tick delay, std::coroutine_handle<> h)
    {
        after(delay, EventFn::resume(h));
    }

    void resumeSoon(std::coroutine_handle<> h)
    {
        pushNow(EventFn::resume(h));
    }
    /** @} */

    /** Run until the event queue is empty. */
    void run();

    /**
     * Run until the event queue is empty or simulated time would pass
     * @p limit. A limit below now() runs only the events due now; time
     * never moves backwards.
     * @return true if the queue drained, false if the limit was hit.
     */
    bool runUntil(Tick limit);

    /** Start a detached coroutine process (see process.hh). */
    void spawn(Process proc);

    /** Number of processes that have started but not finished. */
    std::size_t numLiveProcesses() const { return numLive_; }

    /** Total events executed so far (for tests and sanity checks). */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** Same-tick events dispatched: those scheduled for the tick that
     *  was current when they were scheduled. */
    std::uint64_t readyRingHits() const { return ringHits_; }

    /** Events scheduled for a later tick, near or far. */
    std::uint64_t heapPushes() const { return heapPushes_; }

    /** High-water marks of the pending later-tick and same-tick events. */
    std::size_t peakHeapSize() const { return peakHeap_; }
    std::size_t peakRingSize() const { return peakRing_; }

    /** Snapshot of the event-core counters (stats/stats.hh). */
    stats::EventCoreCounters
    counters() const
    {
        return {executed_, ringHits_, heapPushes_,
                static_cast<std::uint64_t>(peakHeap_),
                static_cast<std::uint64_t>(peakRing_), predicateTests_};
    }

    /** Count one waiter predicate evaluated by a wakeup. */
    void countPredicateTest() { ++predicateTests_; }

    /** Events currently queued (wheel + far heap). */
    std::size_t
    pendingEvents() const
    {
        return pendingNow_ + pendingLater_;
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
    /**
     * The far heap: events due `wheelSpan` or more ticks ahead when they
     * were scheduled. A 4-ary min-heap of small (when, seq, slot) keys
     * over a slab of EventFns. Sifts move 24-byte keys, never the
     * callables; a popped event's slot is recycled for the next push, so
     * the slab and its free list only grow. Order is exactly (when, seq): the slot index
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

    /** A wheel event and the link to the next one in its bucket. */
    struct Node
    {
        EventFn fn;
        std::uint32_t next = noNode;
        /** Due at the tick current when it was scheduled (counters only). */
        bool sameTick = false;
    };

    /** One tick's FIFO of wheel events; valid while its bitmap bit is set. */
    struct Bucket
    {
        std::uint32_t head;
        std::uint32_t tail;
    };

    static constexpr std::uint32_t noNode = ~std::uint32_t{0};
    static constexpr std::size_t wheelMask = wheelSpan - 1;
    static constexpr std::size_t bitmapWords = wheelSpan / 64;
    static_assert((wheelSpan & wheelMask) == 0 && bitmapWords > 0,
                  "the wheel span must be a power of two of at least 64");

    void pushNow(EventFn fn);
    void pushWheel(Tick when, EventFn &&fn, bool same_tick);

    /** Bucket of the earliest wheel event; the wheel must be non-empty. */
    std::size_t nextBucket() const;

    /** Unlink the head event of bucket @p b and return its callable. */
    EventFn popBucket(std::size_t b);

    /**
     * Dispatch the next event in (when, seq) order if it is due at or
     * before @p limit.
     * @return false if nothing was due.
     */
    bool step(Tick limit);

    std::vector<Bucket> buckets_;
    /** Bit b set iff bucket b holds events. */
    std::array<std::uint64_t, bitmapWords> bitmap_{};
    /** Wheel event storage; free nodes chain through `next`. */
    std::vector<Node> nodes_;
    std::uint32_t freeNode_ = noNode;
    std::size_t wheelEvents_ = 0;
    TimerHeap far_;
    /** Sentinel of the circular list of spawned, unfinished frames. */
    LiveLink live_{&live_, &live_};
    std::size_t numLive_ = 0;
    Tick now_ = 0;
    /** Scheduling order of far events; wheel buckets are FIFO. */
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t ringHits_ = 0;
    std::uint64_t heapPushes_ = 0;
    std::uint64_t predicateTests_ = 0;
    std::size_t pendingNow_ = 0;
    std::size_t pendingLater_ = 0;
    std::size_t peakHeap_ = 0;
    std::size_t peakRing_ = 0;
};

} // namespace minos::sim

#endif // MINOS_SIM_SIMULATOR_HH
