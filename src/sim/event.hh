/**
 * @file
 * The simulator's closure cell: an in-place, run-once `void()` for the
 * event callables that do not fit an event node.
 *
 * Most events never reach an EventFn. A coroutine resume is stored in
 * its event node as the frame address, and a trivially copyable callable
 * of up to `Simulator::nodeInlineBytes` (a Condition batch's
 * `[this, n]`) is stored in the node as it is (simulator.hh). What is
 * left, message deliveries that carry a whole `net::Message`, the
 * VFifo's apply closure and closures holding a refcounted transaction,
 * is built in an EventFn cell of the simulator's closure slab. The cells
 * never move: a callable is built in place, run in place and destroyed
 * once, so an EventFn has no move or relocate operation. A callable up
 * to `inlineBytes` lives in the cell; a larger one goes to the heap, so
 * the API stays fully general.
 */

#ifndef MINOS_SIM_EVENT_HH
#define MINOS_SIM_EVENT_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace minos::sim {

/** In-place, non-movable `void()` callable with a heap fallback. */
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
    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    /** Build @p f in this empty cell; inline when it fits, else heap. */
    template <typename F>
    void
    emplace(F &&f)
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

    /** Run the callable; it stays alive until reset(). */
    void operator()() { ops_->invoke(storage_); }

    /** Destroy the callable, if any, leaving the cell empty. */
    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *storage);
        void (*destroy)(void *storage) noexcept;
    };

    template <typename Fn>
    static constexpr Ops inlineOps_{
        [](void *storage) { (*std::launder(
              reinterpret_cast<Fn *>(storage)))(); },
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
