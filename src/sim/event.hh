/**
 * @file
 * The simulator's event callable: a small-buffer-optimized, move-only
 * `void()` with a dedicated coroutine-resume representation.
 *
 * The discrete-event hot path schedules two kinds of work:
 *  - resuming a suspended coroutine (the overwhelmingly common case:
 *    every `co_await delay(t)`, condition wakeup, and mailbox handoff),
 *  - running a small closure (message delivery, bookkeeping).
 *
 * `std::function` forced a heap allocation for any closure over ~16
 * bytes and a second copy (and allocation) when the event was popped
 * back out of the priority queue. EventFn instead stores callables up
 * to `inlineBytes` in-place, relocates them by move (or memcpy when
 * trivially copyable), and represents a raw `std::coroutine_handle<>`
 * with a dedicated ops table so coroutine wakeups never touch the
 * allocator at all and a move copies only the handle. Oversized callables still work via a heap fallback,
 * so the API stays fully general.
 */

#ifndef MINOS_SIM_EVENT_HH
#define MINOS_SIM_EVENT_HH

#include <coroutine>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace minos::sim {

/** Move-only `void()` callable with SBO and a coroutine fast path. */
class EventFn
{
  public:
    /**
     * Inline capacity, sized so the protocol layers' largest hot-path
     * closure — a message delivery capturing a node pointer plus a
     * full net::Message by value — stays allocation-free.
     */
    static constexpr std::size_t inlineBytes = 112;

    EventFn() noexcept = default;

    /** Dedicated representation: resume @p h when the event fires. */
    static EventFn
    resume(std::coroutine_handle<> h) noexcept
    {
        EventFn fn;
        void *addr = h.address();
        std::memcpy(fn.storage_, &addr, sizeof addr);
        fn.ops_ = &coroOps_;
        return fn;
    }

    /** Wrap any `void()` callable; inline when it fits, else heap. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventFn(F &&f) // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= inlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(storage_)) Fn(std::forward<F>(f));
            ops_ = &inlineOps_<Fn>;
        } else {
            Fn *p = new Fn(std::forward<F>(f));
            std::memcpy(storage_, &p, sizeof p);
            ops_ = &heapOps_<Fn>;
        }
    }

    EventFn(EventFn &&o) noexcept : ops_(std::exchange(o.ops_, nullptr))
    {
        if (ops_)
            ops_->relocate(storage_, o.storage_);
    }

    EventFn &
    operator=(EventFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            ops_ = std::exchange(o.ops_, nullptr);
            if (ops_)
                ops_->relocate(storage_, o.storage_);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    /** Run the event. Callable exactly once per stored target. */
    void operator()() { ops_->invoke(storage_); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** True when this event is a raw coroutine resume. */
    bool isResume() const noexcept { return ops_ == &coroOps_; }

  private:
    struct Ops
    {
        void (*invoke)(void *storage);
        /** Move the target from @p src storage into @p dst storage. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *storage) noexcept;
    };

    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    static void
    relocateHandle(void *dst, void *src) noexcept
    {
        std::memcpy(dst, src, sizeof(void *));
    }

    static void destroyNoop(void *) noexcept {}

    static void
    invokeCoro(void *storage)
    {
        void *addr;
        std::memcpy(&addr, storage, sizeof addr);
        std::coroutine_handle<>::from_address(addr).resume();
    }

    static constexpr Ops coroOps_{invokeCoro, relocateHandle,
                                  destroyNoop};

    template <typename Fn>
    static constexpr Ops inlineOps_{
        // invoke
        [](void *storage) { (*std::launder(
              reinterpret_cast<Fn *>(storage)))(); },
        // relocate
        [](void *dst, void *src) noexcept {
            if constexpr (std::is_trivially_copyable_v<Fn>) {
                std::memcpy(dst, src, sizeof(Fn));
            } else {
                Fn *from = std::launder(reinterpret_cast<Fn *>(src));
                ::new (dst) Fn(std::move(*from));
                from->~Fn();
            }
        },
        // destroy
        [](void *storage) noexcept {
            std::launder(reinterpret_cast<Fn *>(storage))->~Fn();
        }};

    template <typename Fn>
    static constexpr Ops heapOps_{
        [](void *storage) {
            Fn *p;
            std::memcpy(&p, storage, sizeof p);
            (*p)();
        },
        [](void *dst, void *src) noexcept {
            std::memcpy(dst, src, sizeof(Fn *));
        },
        [](void *storage) noexcept {
            Fn *p;
            std::memcpy(&p, storage, sizeof p);
            delete p;
        }};

    alignas(std::max_align_t) unsigned char storage_[inlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace minos::sim

#endif // MINOS_SIM_EVENT_HH
