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
 *  - every pending event is one 40-byte node of a recycled pool. The node
 *    holds a coroutine resume as the frame address, a trivially copyable
 *    callable of up to `nodeInlineBytes` as it is, or a pointer to an
 *    EventFn cell of an address-stable closure slab (event.hh) for any
 *    other callable, so steady-state dispatch performs zero heap
 *    allocations;
 *  - every event due less than `wheelSpan` ticks from now, the
 *    `after(0, ...)` wakeups included, is appended to a one-tick FIFO
 *    bucket of a timing wheel; a bitmap finds the next non-empty bucket;
 *  - rarer events due further out wait in a 4-ary min-heap of
 *    (when, seq, node) keys over the same node pool.
 * Dispatch order is exactly (when, seq) — FIFO within a tick — which is
 * the documented determinism contract.
 */

#ifndef MINOS_SIM_SIMULATOR_HH
#define MINOS_SIM_SIMULATOR_HH

#include <algorithm>
#include <array>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
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

    /**
     * Largest trivially copyable callable an event node holds inline,
     * such as a Condition batch's `[this, n]`. Others go to the closure
     * slab.
     */
    static constexpr std::size_t nodeInlineBytes = 24;

    Simulator();
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule the `void()` callable @p fn to run at absolute time
     *  @p when (>= now). */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        place(when, makeNode(std::forward<F>(fn)));
    }

    /** Schedule @p fn to run @p delay (>= 0) ticks from now. */
    template <typename F>
    void
    after(Tick delay, F &&fn)
    {
        placeAfter(delay, makeNode(std::forward<F>(fn)));
    }

    /** @{
     * Coroutine fast path: schedule a raw resume with no closure.
     * resumeSoon() is the `after(0, ...)` wakeup: it joins the current
     * tick's bucket behind the events already due now.
     */
    void
    resumeAfter(Tick delay, std::coroutine_handle<> h)
    {
        placeAfter(delay, resumeNode(h));
    }

    void resumeSoon(std::coroutine_handle<> h) { pushNow(resumeNode(h)); }
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
    /** What a node's payload holds. */
    enum class Kind : std::uint8_t
    {
        Resume, ///< a suspended coroutine's frame address
        Inline, ///< a small trivially copyable callable, in the node
        Cell,   ///< any other callable, in an EventFn slab cell
    };

    /**
     * A pending event, on the wheel or in the far heap. Free nodes chain
     * through `next`, and so do the events of one wheel bucket.
     */
    struct Node
    {
        union
        {
            void *frame;
            EventFn *cell;
            alignas(void *) unsigned char bytes[nodeInlineBytes];
        };
        /** Kind::Inline: runs the callable at `bytes`. */
        void (*invoke)(void *bytes);
        std::uint32_t next;
        Kind kind;
        /** Due at the tick current when it was scheduled (counters only). */
        bool sameTick;
    };
    static_assert(sizeof(Node) <= 48, "an event node is a few words");

    template <typename Fn>
    static constexpr bool fitsNode =
        std::is_trivially_copyable_v<Fn> &&
        sizeof(Fn) <= nodeInlineBytes && alignof(Fn) <= alignof(void *);

    /**
     * The far heap: events due `wheelSpan` or more ticks ahead when they
     * were scheduled. A 4-ary min-heap of small (when, seq, node) keys
     * over the simulator's node pool, so sifts move 24-byte keys, never
     * an event. Order is exactly (when, seq): the node index takes no
     * part in the comparison.
     */
    class TimerHeap
    {
      public:
        struct Key
        {
            Tick when;
            std::uint64_t seq;
            std::uint32_t node;
        };

        bool empty() const { return keys_.empty(); }
        const Key &top() const { return keys_.front(); }

        void
        push(Tick when, std::uint64_t seq, std::uint32_t node)
        {
            keys_.push_back(Key{when, seq, node});
            siftUp(keys_.size() - 1);
        }

        /** Remove the minimum; return its node. */
        std::uint32_t
        popTop()
        {
            std::uint32_t node = keys_.front().node;
            Key last = keys_.back();
            keys_.pop_back();
            if (!keys_.empty())
                siftDownHole(last);
            return node;
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
    /** EventFn cells per slab chunk (32 KiB). The first chunk is made
     *  with the simulator, so a run that never has more closures
     *  pending does not allocate for them. */
    static constexpr std::size_t cellsPerChunk = 256;

    std::uint32_t
    allocNode()
    {
        std::uint32_t i = freeNode_;
        if (i == noNode) {
            i = static_cast<std::uint32_t>(nodes_.size());
            nodes_.emplace_back();
        } else {
            freeNode_ = nodes_[i].next;
        }
        return i;
    }

    std::uint32_t
    resumeNode(std::coroutine_handle<> h)
    {
        std::uint32_t i = allocNode();
        nodes_[i].frame = h.address();
        nodes_[i].kind = Kind::Resume;
        return i;
    }

    /** A node holding @p fn, built in the payload kind that fits it. */
    template <typename F>
    std::uint32_t
    makeNode(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn &>,
                      "an event is a void() callable");
        std::uint32_t i = allocNode();
        Node &n = nodes_[i];
        if constexpr (fitsNode<Fn>) {
            ::new (static_cast<void *>(n.bytes)) Fn(std::forward<F>(fn));
            n.invoke = [](void *bytes) {
                (*std::launder(reinterpret_cast<Fn *>(bytes)))();
            };
            n.kind = Kind::Inline;
        } else {
            if (freeCells_.empty())
                growCells();
            EventFn *cell = freeCells_.back();
            freeCells_.pop_back();
            cell->emplace(std::forward<F>(fn));
            n.cell = cell;
            n.kind = Kind::Cell;
        }
        return i;
    }

    /** Add one chunk of empty cells to the closure slab. */
    void growCells();

    /** Queue node @p i for tick @p when (>= now). */
    void place(Tick when, std::uint32_t i);
    void placeAfter(Tick delay, std::uint32_t i);
    void pushNow(std::uint32_t i);
    void pushWheel(Tick when, std::uint32_t i, bool same_tick);

    /** Bucket of the earliest wheel event; the wheel must be non-empty. */
    std::size_t nextBucket() const;

    /** Unlink the head event of bucket @p b and return its node. */
    std::uint32_t popBucket(std::size_t b);

    /** Free node @p i and run its event. */
    void dispatch(std::uint32_t i);

    /**
     * Dispatch the next event in (when, seq) order if it is due at or
     * before @p limit.
     * @return false if nothing was due.
     */
    bool step(Tick limit);

    std::vector<Bucket> buckets_;
    /** Bit b set iff bucket b holds events. */
    std::array<std::uint64_t, bitmapWords> bitmap_{};
    /** Every pending event, wheel and far heap alike. */
    std::vector<Node> nodes_;
    std::uint32_t freeNode_ = noNode;
    std::size_t wheelEvents_ = 0;
    TimerHeap far_;
    /**
     * The closure slab: chunks of EventFn cells that never move, and the
     * empty ones. Destroying a chunk destroys the closures still pending
     * in it, each once.
     */
    std::vector<std::unique_ptr<EventFn[]>> chunks_;
    std::vector<EventFn *> freeCells_;
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
