/**
 * @file
 * Coroutine process and task types for the discrete-event simulator.
 *
 * Two coroutine types exist:
 *  - Process: a detached, top-level simulated activity. Spawned with
 *    Simulator::spawn(); its frame self-destructs on completion and is
 *    tracked by the simulator so leftover suspended frames are reclaimed
 *    at teardown.
 *  - Task<T>: an awaitable subroutine. `co_await someTask()` transfers
 *    control into the subroutine and resumes the caller when it finishes,
 *    so protocol helpers (e.g. handleObsolete) compose naturally.
 *
 * Awaitables:
 *  - `co_await delay(ticks)` suspends for a simulated duration.
 *  - `co_await cond.until(pred)` suspends until a notification finds
 *    `pred()` true; `co_await cond.wait()` until the next notification.
 *
 * Every frame of either type comes from FramePool, so a steady-state
 * simulation recycles frames instead of calling the allocator.
 */

#ifndef MINOS_SIM_PROCESS_HH
#define MINOS_SIM_PROCESS_HH

#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <utility>

#include "common/logging.hh"
#include "sim/simulator.hh"

namespace minos::sim {

/**
 * Recycled coroutine frames: per-thread LIFO free lists, one per 64-byte
 * size class up to 2 KiB; larger frames go straight to ::operator new.
 * Per thread because a promise's operator new cannot see the Simulator;
 * a frame must be freed on the thread that allocated it. A thread's
 * lists are freed when it exits. Compiled out under AddressSanitizer so
 * that every frame keeps its real lifetime there (see DESIGN.md §5b).
 */
class FramePool
{
  public:
#if defined(__SANITIZE_ADDRESS__)
    static constexpr bool enabled = false;
#else
    static constexpr bool enabled = true;
#endif
    static constexpr std::size_t granule = 64;
    static constexpr std::size_t numClasses = 32;
    /** Largest pooled frame. */
    static constexpr std::size_t maxPooled = granule * numClasses;

    static void *
    allocate(std::size_t n)
    {
        if (!enabled || n > maxPooled)
            return ::operator new(n);
        Block *&head = heads_[classOf(n)];
        if (Block *b = head) {
            head = b->next;
            return b;
        }
        return allocateFresh(classOf(n));
    }

    static void
    deallocate(void *p, std::size_t n) noexcept
    {
        if (!enabled || n > maxPooled || closed_) {
            ::operator delete(p);
            return;
        }
        Block *&head = heads_[classOf(n)];
        head = ::new (p) Block{head};
    }

  private:
    struct Block
    {
        Block *next;
    };

    static std::size_t classOf(std::size_t n) { return (n - 1) / granule; }

    /** Allocate a block of class @p c; on a thread's first call, also
     *  arrange for its lists to be freed when it exits. */
    static void *allocateFresh(std::size_t c);

    /** Frees a thread's lists at thread exit. */
    struct Reaper
    {
        ~Reaper();
    };

    static inline thread_local Block *heads_[numClasses] = {};
    /** Set once the lists are freed; later frees bypass the pool. */
    static inline thread_local bool closed_ = false;
};

/**
 * Base for all simulation coroutine promises: carries the simulator and
 * routes the coroutine frame through FramePool.
 */
struct PromiseBase
{
    Simulator *sim = nullptr;

    static void *operator new(std::size_t n) { return FramePool::allocate(n); }

    static void
    operator delete(void *p, std::size_t n) noexcept
    {
        FramePool::deallocate(p, n);
    }
};

/**
 * Detached top-level coroutine. Create by calling a coroutine function
 * returning Process, then hand it to Simulator::spawn().
 */
class Process
{
  public:
    /** The link puts a spawned frame on its simulator's live list. */
    struct promise_type : PromiseBase, LiveLink
    {
        Process
        get_return_object()
        {
            return Process(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }

            void
            await_suspend(std::coroutine_handle<promise_type> h) noexcept
            {
                Simulator *sim = h.promise().sim;
                if (sim)
                    sim->unregisterFrame(h.promise());
                h.destroy();
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}

        void
        unhandled_exception()
        {
            MINOS_PANIC("unhandled exception escaped a sim::Process");
        }
    };

    Process(Process &&o) noexcept : handle_(std::exchange(o.handle_, {})) {}
    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    ~Process()
    {
        // A Process that was never spawned owns its (suspended) frame.
        if (handle_)
            handle_.destroy();
    }

    /** Internal: release ownership of the frame to the simulator. */
    std::coroutine_handle<promise_type>
    release()
    {
        return std::exchange(handle_, {});
    }

  private:
    explicit Process(std::coroutine_handle<promise_type> h) : handle_(h) {}

    std::coroutine_handle<promise_type> handle_;
};

/**
 * Awaitable subroutine returning T (or void). Lazily started; the caller's
 * coroutine is resumed when the task completes (symmetric transfer).
 */
template <typename T = void>
class Task;

namespace detail {

template <typename Promise>
struct TaskFinalAwaiter
{
    bool await_ready() noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<Promise> h) noexcept
    {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
    }

    void await_resume() noexcept {}
};

struct TaskPromiseBase : PromiseBase
{
    std::coroutine_handle<> continuation;

    std::suspend_always initial_suspend() noexcept { return {}; }

    void
    unhandled_exception()
    {
        MINOS_PANIC("unhandled exception escaped a sim::Task");
    }
};

} // namespace detail

template <typename T>
class Task
{
  public:
    struct promise_type : detail::TaskPromiseBase
    {
        std::optional<T> value;

        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        detail::TaskFinalAwaiter<promise_type>
        final_suspend() noexcept
        {
            return {};
        }

        void return_value(T v) { value.emplace(std::move(v)); }
    };

    Task(Task &&o) noexcept : handle_(std::exchange(o.handle_, {})) {}
    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task()
    {
        if (handle_)
            handle_.destroy();
    }

    bool await_ready() const noexcept { return false; }

    template <typename P>
    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<P> parent)
    {
        static_assert(std::is_base_of_v<PromiseBase, P>);
        handle_.promise().sim = parent.promise().sim;
        handle_.promise().continuation = parent;
        return handle_;
    }

    T
    await_resume()
    {
        MINOS_ASSERT(handle_.promise().value.has_value(),
                     "Task finished without a value");
        return std::move(*handle_.promise().value);
    }

  private:
    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

    std::coroutine_handle<promise_type> handle_;
};

template <>
class Task<void>
{
  public:
    struct promise_type : detail::TaskPromiseBase
    {
        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        detail::TaskFinalAwaiter<promise_type>
        final_suspend() noexcept
        {
            return {};
        }

        void return_void() {}
    };

    Task(Task &&o) noexcept : handle_(std::exchange(o.handle_, {})) {}
    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task()
    {
        if (handle_)
            handle_.destroy();
    }

    bool await_ready() const noexcept { return false; }

    template <typename P>
    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<P> parent)
    {
        static_assert(std::is_base_of_v<PromiseBase, P>);
        handle_.promise().sim = parent.promise().sim;
        handle_.promise().continuation = parent;
        return handle_;
    }

    void await_resume() {}

  private:
    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

    std::coroutine_handle<promise_type> handle_;
};

/** Awaitable that suspends the current coroutine for @p ticks. */
struct DelayAwaiter
{
    Tick ticks;

    bool await_ready() const noexcept { return ticks <= 0; }

    template <typename P>
    void
    await_suspend(std::coroutine_handle<P> h)
    {
        static_assert(std::is_base_of_v<PromiseBase, P>);
        Simulator *sim = h.promise().sim;
        MINOS_ASSERT(sim, "coroutine not attached to a simulator");
        sim->resumeAfter(ticks, h);
    }

    void await_resume() const noexcept {}
};

/** Suspend the calling process for @p ticks of simulated time. */
inline DelayAwaiter
delay(Tick ticks)
{
    return DelayAwaiter{ticks};
}

} // namespace minos::sim

#endif // MINOS_SIM_PROCESS_HH
