/**
 * @file
 * Condition variables, mailboxes, and wait-groups for simulated processes.
 *
 * These model the "spin until X" primitives of the MINOS algorithms
 * (ConsistencySpin, PersistencySpin, WRLock spin, ACK collection) in
 * simulated time without burning host cycles.
 */

#ifndef MINOS_SIM_CONDITION_HH
#define MINOS_SIM_CONDITION_HH

#include <coroutine>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "sim/process.hh"

namespace minos::sim {

/**
 * A broadcast condition: processes block on it until notifyAll() or
 * notifyOne() wakes them at the current tick.
 *
 * The usual form is a predicated wait, mirroring a spin:
 * @code
 *   co_await cond.until([&] { return pred(); });
 * @endcode
 * which returns at once if the predicate holds and otherwise parks the
 * waiter with its predicate. It behaves exactly like the loop
 * @code
 *   while (!pred())
 *       co_await cond.wait();
 * @endcode
 * but a waiter whose predicate is still false when its wakeup is due
 * goes straight back to the end of the queue without being resumed.
 *
 * A notification takes the waiters parked at that moment, in FIFO order,
 * and schedules ONE ready-ring event for the whole batch. When that event
 * runs it visits the batch in order: a false-predicate waiter re-parks,
 * the others are resumed inline. Dispatch order is exactly that of one
 * ring event per waiter running the loop above: such events hold
 * consecutive seqs, so nothing else can run between them, and each
 * predicate is tested at the point where the loop would re-test it.
 *
 * Lifetime: the batch event refers back to the Condition, so a Condition
 * must outlive every notification it has issued until that event has run,
 * and a waiter it resumes must not destroy it. Long-lived members (the
 * usual owners) meet this trivially.
 */
class Condition
{
  public:
    explicit Condition(Simulator &sim) : sim_(sim) {}

    Condition(const Condition &) = delete;
    Condition &operator=(const Condition &) = delete;

    /** Awaiter of wait(): parks unconditionally. */
    struct Awaiter
    {
        Condition &cond;

        bool await_ready() const noexcept { return false; }

        template <typename P>
        void
        await_suspend(std::coroutine_handle<P> h)
        {
            static_assert(std::is_base_of_v<PromiseBase, P>);
            cond.parked_.push_back(Waiter{h, nullptr, nullptr});
        }

        void await_resume() const noexcept {}
    };

    /** Awaiter of until(): parks only while @p pred is false. */
    template <typename Pred>
    struct UntilAwaiter
    {
        Condition &cond;
        Pred pred;

        bool await_ready() { return static_cast<bool>(pred()); }

        template <typename P>
        void
        await_suspend(std::coroutine_handle<P> h)
        {
            static_assert(std::is_base_of_v<PromiseBase, P>);
            // The awaiter lives in the suspended frame, so &pred stays
            // valid until the waiter is resumed.
            cond.parked_.push_back(Waiter{h, &test<Pred>, &pred});
        }

        void await_resume() const noexcept {}
    };

    /** Suspend until the next notifyAll() / notifyOne(). */
    Awaiter wait() { return Awaiter{*this}; }

    /**
     * Suspend until @p pred() holds, re-tested at each notification.
     * Never suspends if it already holds.
     */
    template <typename Pred>
    UntilAwaiter<Pred>
    until(Pred pred)
    {
        return UntilAwaiter<Pred>{*this, std::move(pred)};
    }

    /**
     * Wake every current waiter at the present tick, in wait (FIFO)
     * order, with one ready-ring event for the whole batch: no closure
     * allocation, no heap traffic.
     */
    void
    notifyAll()
    {
        if (parked_.empty())
            return;
        std::size_t n = parked_.size();
        notified_.insert(notified_.end(), parked_.begin(), parked_.end());
        parked_.clear();
        scheduleBatch(n);
    }

    /**
     * Wake only the oldest waiter (FIFO handoff). Use when one unit of
     * capacity became available and waking the whole herd would just
     * make the losers re-queue (e.g. CorePool::release()). A predicated
     * waiter whose predicate is false by then re-parks at the back.
     */
    void
    notifyOne()
    {
        if (parked_.empty())
            return;
        notified_.push_back(parked_.front());
        parked_.erase(parked_.begin());
        scheduleBatch(1);
    }

    /** Number of processes currently blocked on this condition. */
    std::size_t numWaiters() const { return parked_.size(); }

  private:
    struct Waiter
    {
        std::coroutine_handle<> handle;
        /** Predicate test; null for a plain wait(). */
        bool (*holds)(void *pred);
        void *pred;
    };

    template <typename Pred>
    static bool
    test(void *pred)
    {
        return static_cast<bool>((*static_cast<Pred *>(pred))());
    }

    void
    scheduleBatch(std::size_t n)
    {
        sim_.after(0, [this, n] { runBatch(n); });
    }

    /**
     * Visit the next @p n notified waiters. Batches are consumed in the
     * order they were scheduled (all are ready-ring events of this
     * tick), so they always sit at the head of notified_.
     */
    void
    runBatch(std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            // Copy out first: a resumed waiter may notify again and grow
            // notified_.
            Waiter w = notified_[head_++];
            if (head_ == notified_.size()) {
                notified_.clear();
                head_ = 0;
            }
            if (w.holds && !w.holds(w.pred))
                parked_.push_back(w);
            else
                w.handle.resume();
        }
    }

    Simulator &sim_;
    /** Waiting for a notification, FIFO. */
    std::vector<Waiter> parked_;
    /** Notified, batch event still pending; consumed from head_. */
    std::vector<Waiter> notified_;
    std::size_t head_ = 0;
};

/**
 * An unbounded FIFO channel of T. send() never blocks; recv() suspends
 * until an item is available. Each sent item wakes exactly one receiver
 * and is handed to it directly, so concurrent receivers never observe a
 * spurious empty queue.
 */
template <typename T>
class Mailbox
{
  public:
    explicit Mailbox(Simulator &sim) : sim_(sim) {}

    Mailbox(const Mailbox &) = delete;
    Mailbox &operator=(const Mailbox &) = delete;

    struct RecvAwaiter
    {
        Mailbox &mb;
        std::optional<T> slot;

        bool
        await_ready()
        {
            if (!mb.queue_.empty()) {
                slot.emplace(std::move(mb.queue_.front()));
                mb.queue_.pop_front();
                return true;
            }
            return false;
        }

        template <typename P>
        void
        await_suspend(std::coroutine_handle<P> h)
        {
            static_assert(std::is_base_of_v<PromiseBase, P>);
            handle = h;
            mb.receivers_.push_back(this);
        }

        T
        await_resume()
        {
            MINOS_ASSERT(slot.has_value(), "mailbox recv without item");
            return std::move(*slot);
        }

        std::coroutine_handle<> handle;
    };

    /** Deposit an item; wakes one pending receiver if any. */
    void
    send(T item)
    {
        if (!receivers_.empty()) {
            RecvAwaiter *rx = receivers_.front();
            receivers_.pop_front();
            rx->slot.emplace(std::move(item));
            sim_.resumeSoon(rx->handle);
        } else {
            queue_.push_back(std::move(item));
        }
    }

    /** Receive the next item, suspending if none is queued. */
    RecvAwaiter recv() { return RecvAwaiter{*this, std::nullopt, {}}; }

    /** Items queued and not yet claimed by a receiver. */
    std::size_t size() const { return queue_.size(); }

    bool empty() const { return queue_.empty(); }

  private:
    friend struct RecvAwaiter;

    Simulator &sim_;
    std::deque<T> queue_;
    std::deque<RecvAwaiter *> receivers_;
};

/**
 * Counts outstanding activities; waiters block until the count returns to
 * zero. Used by drivers to join a fleet of worker processes. Its
 * Condition's lifetime rule applies: it must outlive its last done().
 */
class WaitGroup
{
  public:
    explicit WaitGroup(Simulator &sim) : cond_(sim) {}

    void add(std::size_t n = 1) { count_ += n; }

    void
    done()
    {
        MINOS_ASSERT(count_ > 0, "WaitGroup::done() below zero");
        if (--count_ == 0)
            cond_.notifyAll();
    }

    /** Usable only inside a coroutine. */
    Task<void>
    wait()
    {
        co_await cond_.until([this] { return count_ == 0; });
    }

    std::size_t count() const { return count_; }

  private:
    Condition cond_;
    std::size_t count_ = 0;
};

} // namespace minos::sim

#endif // MINOS_SIM_CONDITION_HH
