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
 */

#ifndef MINOS_SIM_PROCESS_HH
#define MINOS_SIM_PROCESS_HH

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "common/logging.hh"
#include "sim/simulator.hh"

namespace minos::sim {

/** Base for all simulation coroutine promises: carries the simulator. */
struct PromiseBase
{
    Simulator *sim = nullptr;
};

/**
 * Detached top-level coroutine. Create by calling a coroutine function
 * returning Process, then hand it to Simulator::spawn().
 */
class Process
{
  public:
    struct promise_type : PromiseBase
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
                    sim->unregisterFrame(h.address());
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
