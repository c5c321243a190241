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
#include <optional>
#include <type_traits>
#include <utility>

#include "common/logging.hh"
#include "common/ring.hh"
#include "sim/process.hh"

namespace minos::sim {

class Condition;
class WaitKey;

namespace detail {

/** A parked waiter: the link inside its awaiter, in the suspended frame. */
struct WaitNode
{
    std::coroutine_handle<> handle;
    /** Predicate test; null for a plain wait(). */
    bool (*holds)(void *pred) = nullptr;
    void *pred = nullptr;
    WaitNode *next = nullptr;

    /** @{ Keyed waits only (Condition::until(key, pred)). */
    WaitKey *key = nullptr;
    WaitNode *keyNext = nullptr; ///< the key's other waiters
    Condition *cond = nullptr;   ///< where it waits
    /** The key fired since the predicate was last tested. */
    bool dirty = false;
    /** At the head of a run of consecutive keyed waiters: its last
     *  waiter and its length. */
    WaitNode *runEnd = nullptr;
    std::size_t runLen = 0;
    /** @} */
};

} // namespace detail

/**
 * Names the state that a group of keyed waits reads, such as the fields
 * of one transaction. A keyed waiter, `co_await cond.until(key, pred)`,
 * promises that @p pred reads only state whose every change is followed,
 * in the same event, by `key.fire()`. Until its key fires, a waiter's
 * predicate is known to be still false, so a notification can re-park it
 * without testing it. A key may be copied only while nobody waits on it
 * (a recycled record is reassigned from a fresh one).
 */
class WaitKey
{
  public:
    WaitKey() = default;

    WaitKey(const WaitKey &o) { assertIdle(o); }

    WaitKey &
    operator=(const WaitKey &o)
    {
        assertIdle(*this);
        assertIdle(o);
        return *this;
    }

    /** The state the keyed predicates read changed: each waiter is
     *  tested again at its next visit. */
    inline void fire();

  private:
    friend class Condition;

    static void
    assertIdle(const WaitKey &k)
    {
        MINOS_ASSERT(!k.waiters_, "copying a WaitKey that has waiters");
    }

    detail::WaitNode *waiters_ = nullptr;
};

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
 * and schedules ONE same-tick event for the whole batch. When that event
 * runs it visits the batch in order: a false-predicate waiter re-parks,
 * the others are resumed inline. Dispatch order is exactly that of one
 * same-tick event per waiter running the loop above: such events hold
 * consecutive seqs, so nothing else can run between them, and each
 * predicate is tested at the point where the loop would re-test it.
 *
 * The queue is intrusive: each waiter's link lives in its awaiter, so
 * parking and waking never allocate and notifyOne() pops in O(1).
 * Keyed waiters (see WaitKey) parked back to back form a run. While no
 * keyed waiter of this Condition has a fired key, a batch re-parks a
 * whole run with one splice: every predicate in it would test false, and
 * nothing runs between those tests, so the order is the same.
 *
 * Lifetime: the batch event refers back to the Condition, so a Condition
 * must outlive every notification it has issued until that event has run,
 * and a waiter it resumes must not destroy it. Long-lived members (the
 * usual owners) meet this trivially.
 */
class Condition
{
    using Node = detail::WaitNode;

  public:
    explicit Condition(Simulator &sim) : sim_(sim) {}

    Condition(const Condition &) = delete;
    Condition &operator=(const Condition &) = delete;

    /** Awaiter of wait(): parks unconditionally. */
    struct Awaiter
    {
        Condition &cond;
        Node node{};

        bool await_ready() const noexcept { return false; }

        template <typename P>
        void
        await_suspend(std::coroutine_handle<P> h)
        {
            static_assert(std::is_base_of_v<PromiseBase, P>);
            node.handle = h;
            cond.park(&node);
        }

        void await_resume() const noexcept {}
    };

    /** Awaiter of until(): parks only while @p pred is false. */
    template <typename Pred>
    struct UntilAwaiter
    {
        Condition &cond;
        WaitKey *key;
        Pred pred;
        Node node{};

        bool await_ready() { return static_cast<bool>(pred()); }

        template <typename P>
        void
        await_suspend(std::coroutine_handle<P> h)
        {
            static_assert(std::is_base_of_v<PromiseBase, P>);
            // The awaiter lives in the suspended frame, so the node and
            // &pred stay valid until the waiter is resumed.
            node.handle = h;
            node.holds = &test<Pred>;
            node.pred = &pred;
            if (key) {
                node.key = key;
                node.cond = &cond;
                node.keyNext = key->waiters_;
                key->waiters_ = &node;
            }
            cond.park(&node);
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
        return UntilAwaiter<Pred>{*this, nullptr, std::move(pred)};
    }

    /**
     * Like until(pred), for a @p pred that reads only state covered by
     * @p key: it is re-tested only at notifications after key.fire().
     */
    template <typename Pred>
    UntilAwaiter<Pred>
    until(WaitKey &key, Pred pred)
    {
        return UntilAwaiter<Pred>{*this, &key, std::move(pred)};
    }

    /**
     * Wake every current waiter at the present tick, in wait (FIFO)
     * order, with one same-tick event for the whole batch: no closure
     * allocation.
     */
    void
    notifyAll()
    {
        if (!parked_.head)
            return;
        std::size_t n = numParked_;
        notified_.append(parked_.head, parked_.tail);
        parked_ = {};
        numParked_ = 0;
        backRun_ = nullptr;
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
        Node *w = parked_.head;
        if (!w)
            return;
        splitRunHead(w);
        if (backRun_ == w)
            backRun_ = w->next;
        parked_.popFront();
        --numParked_;
        notified_.append(w, w);
        scheduleBatch(1);
    }

    /** Number of processes currently blocked on this condition. */
    std::size_t numWaiters() const { return numParked_; }

  private:
    friend class WaitKey;

    /** A FIFO of nodes linked through Node::next. */
    struct Chain
    {
        Node *head = nullptr;
        Node *tail = nullptr;

        /** Append the linked nodes @p first .. @p last. */
        void
        append(Node *first, Node *last)
        {
            last->next = nullptr;
            if (tail)
                tail->next = first;
            else
                head = first;
            tail = last;
        }

        void
        popFront()
        {
            head = head->next;
            if (!head)
                tail = nullptr;
        }
    };

    template <typename Pred>
    static bool
    test(void *pred)
    {
        return static_cast<bool>((*static_cast<Pred *>(pred))());
    }

    /** Append one waiter; a keyed one joins the run at the back. */
    void
    park(Node *n)
    {
        parked_.append(n, n);
        ++numParked_;
        if (!n->key) {
            backRun_ = nullptr;
        } else if (backRun_) {
            backRun_->runEnd = n;
            ++backRun_->runLen;
        } else {
            n->runEnd = n;
            n->runLen = 1;
            backRun_ = n;
        }
    }

    /** Append the run headed by @p h; it joins the run at the back. */
    void
    parkRun(Node *h)
    {
        Node *end = h->runEnd;
        std::size_t len = h->runLen;
        parked_.append(h, end);
        numParked_ += len;
        if (backRun_) {
            backRun_->runEnd = end;
            backRun_->runLen += len;
        } else {
            backRun_ = h;
        }
    }

    /** @p w, the head of its chain, is about to leave it alone: the
     *  rest of its run gets a new head. */
    static void
    splitRunHead(Node *w)
    {
        if (w->key && w->runLen > 1) {
            Node *rest = w->next;
            rest->runEnd = w->runEnd;
            rest->runLen = w->runLen - 1;
            w->runEnd = w;
            w->runLen = 1;
        }
    }

    void
    unlinkFromKey(Node *w)
    {
        Node **p = &w->key->waiters_;
        while (*p != w)
            p = &(*p)->keyNext;
        *p = w->keyNext;
    }

    void
    scheduleBatch(std::size_t n)
    {
        sim_.after(0, [this, n] { runBatch(n); });
    }

    /**
     * Visit the next @p n notified waiters. Batches are consumed in the
     * order they were scheduled (all are same-tick events of this
     * tick), so they always sit at the head of notified_. A run of keyed
     * waiters lies wholly inside one batch.
     */
    void
    runBatch(std::size_t n)
    {
        while (n > 0) {
            Node *w = notified_.head;
            if (w->key && dirty_ == 0) {
                // No key fired: every predicate in the run is false.
                std::size_t len = w->runLen;
                MINOS_ASSERT(len <= n, "a keyed run crosses a batch");
                notified_.head = w->runEnd->next;
                if (!notified_.head)
                    notified_.tail = nullptr;
                parkRun(w);
                n -= len;
                continue;
            }
            splitRunHead(w);
            notified_.popFront();
            --n;
            if (w->key && !w->dirty) {
                park(w); // its predicate is still false
                continue;
            }
            if (w->holds) {
                if (w->dirty) {
                    w->dirty = false;
                    --dirty_;
                }
                sim_.countPredicateTest();
                if (!w->holds(w->pred)) {
                    park(w);
                    continue;
                }
            }
            if (w->key)
                unlinkFromKey(w);
            w->handle.resume();
        }
    }

    Simulator &sim_;
    /** Waiting for a notification, FIFO. */
    Chain parked_;
    std::size_t numParked_ = 0;
    /** Head of the keyed run that ends parked_, if it ends in one. */
    Node *backRun_ = nullptr;
    /** Notified, batch event still pending. */
    Chain notified_;
    /** Keyed waiters whose key fired since their last test. */
    std::size_t dirty_ = 0;
};

inline void
WaitKey::fire()
{
    for (detail::WaitNode *n = waiters_; n; n = n->keyNext) {
        if (!n->dirty) {
            n->dirty = true;
            ++n->cond->dirty_;
        }
    }
}

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
    Ring<T> queue_;
    Ring<RecvAwaiter *> receivers_;
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
