/**
 * @file
 * The MINOS-O SmartNIC hardware queues (paper §V-B.4, Fig. 5(b)).
 *
 * - vFIFO (volatile FIFO, in SNIC DRAM): replaces the WRLock. Updates are
 *   enqueued atomically; a hardware drain engine dequeues entries in
 *   order, skips obsolete ones, and DMAs fresh ones into the host LLC
 *   (updating volatileTS). A write cannot release the RDLock until its
 *   entry has drained.
 * - dFIFO (durable FIFO, in SNIC NVM): an update is durable the moment it
 *   is enqueued (it enters the node's durable state then); the drain
 *   engine pushes entries to the host NVM log in the background, off the
 *   critical path.
 *
 * Both queues are bounded (Table III: 5 entries each; Fig. 13 sweeps the
 * size); enqueues block while the queue is full.
 */

#ifndef MINOS_SNIC_FIFO_HH
#define MINOS_SNIC_FIFO_HH

#include <coroutine>
#include <cstdint>
#include <type_traits>

#include "common/ring.hh"
#include "sim/condition.hh"
#include "sim/network.hh"
#include "simproto/config.hh"
#include "simproto/replica_store.hh"

namespace minos::snic {

/** Sentinel for "no FIFO entry". */
inline constexpr std::uint64_t noEntry = ~0ull;

/**
 * The slot accounting and slot waits of one bounded FIFO. Enqueuers wait
 * in claim() for a free slot (entries + reserved < cap) and reserve it;
 * the FIFO's one drain engine waits in next() for a queued entry.
 *
 * It keeps the exact wakeup order of a Condition on which every enqueuer
 * and the drain engine wait with their predicates (DESIGN.md §5b), but a
 * notification costs O(1 + resumed) instead of O(parked). The parked
 * waiters form one FIFO, cut into segments: a run of consecutive
 * enqueuers (an intrusive list through their awaiters) or the drain
 * engine. A batch visits its segments in order. In a run it resumes
 * enqueuers from the head while a slot is free; at the first full test it
 * re-parks the rest of the run with one splice. That is exact because all
 * enqueuers share one predicate and a predicate test changes nothing, so
 * the untested rest would fail too, in order, with nothing run between.
 *
 * Lifetime: like a Condition, it must outlive the batch events its
 * notifications schedule (its owner FIFO lives as long as the node).
 */
class SlotQueue
{
  public:
    /** @param cap slots; 0 = unbounded */
    SlotQueue(sim::Simulator &sim, int cap);

    SlotQueue(const SlotQueue &) = delete;
    SlotQueue &operator=(const SlotQueue &) = delete;

    /** Awaiter of claim(): parks while every slot is taken. */
    class Claim
    {
      public:
        explicit Claim(SlotQueue &q) : q_(q) {}

        bool await_ready() const { return q_.hasSlot(); }

        template <typename P>
        void
        await_suspend(std::coroutine_handle<P> h)
        {
            static_assert(std::is_base_of_v<sim::PromiseBase, P>);
            handle_ = h;
            ++q_.fullWaits_;
            q_.parkRun(this, this);
        }

        void await_resume() { ++q_.reserved_; }

      private:
        friend class SlotQueue;

        SlotQueue &q_;
        std::coroutine_handle<> handle_;
        Claim *next_ = nullptr;
    };

    /** Awaiter of next(): parks the drain engine while the FIFO is empty. */
    class Next
    {
      public:
        explicit Next(SlotQueue &q) : q_(q) {}

        bool await_ready() const { return q_.entries_ > 0; }

        template <typename P>
        void
        await_suspend(std::coroutine_handle<P> h)
        {
            static_assert(std::is_base_of_v<sim::PromiseBase, P>);
            MINOS_ASSERT(!q_.drain_, "a FIFO has one drain engine");
            q_.drain_ = h;
            q_.parkDrain();
        }

        void await_resume() const noexcept {}

      private:
        SlotQueue &q_;
    };

    /** Suspend until a slot is free, then reserve it. */
    Claim claim() { return Claim(*this); }

    /**
     * An entry landed in the FIFO, into a slot reserved by claim() if
     * @p reserved. Wakes the waiters.
     */
    void
    fill(bool reserved = true)
    {
        if (reserved)
            --reserved_;
        ++entries_;
        notifyAll();
    }

    /** Suspend the drain engine until an entry is queued. */
    Next next() { return Next(*this); }

    /** The drain engine took the head entry; its slot is free. */
    void
    take()
    {
        --entries_;
        notifyAll();
    }

    /** Enqueues that found every slot claimed and had to wait. */
    std::uint64_t fullWaits() const { return fullWaits_; }

  private:
    /** A run of parked enqueuers, or the drain engine if head is null. */
    struct Segment
    {
        Claim *head;
        Claim *tail;
    };

    bool hasSlot() const { return entries_ + reserved_ < cap_; }

    /** @{ Append to the parked (not yet notified) segments. */
    void parkRun(Claim *head, Claim *tail);
    void parkDrain();
    /** @} */

    /** Notify every parked waiter: one same-tick batch event. */
    void notifyAll();

    /** Visit the next @p n notified segments. */
    void runBatch(std::size_t n);

    sim::Simulator &sim_;
    std::size_t cap_;
    std::size_t entries_ = 0;
    std::size_t reserved_ = 0; ///< slots claimed, write still in flight
    std::uint64_t fullWaits_ = 0;
    std::coroutine_handle<> drain_; ///< parked drain engine
    /**
     * Every waiting segment, FIFO: the first notified_ belong to pending
     * batches, the rest are parked.
     */
    Ring<Segment> ring_;
    std::size_t notified_ = 0;
};

/**
 * The volatile FIFO: serializes updates to the host LLC and filters
 * obsolete ones, eliminating the WRLock.
 */
class VFifo
{
  public:
    /**
     * @param store the node's LLC-resident record store; a drained
     *        entry lands through its record-apply hook
     * @param pcie_to_host the SNIC->host PCIe link the DMA engine shares
     * @param progress node-wide progress condition (notified on LLC
     *        updates so coherent-field spins wake up)
     */
    VFifo(sim::Simulator &sim, const simproto::ClusterConfig &cfg,
          simproto::ReplicaStore &store, sim::Link &pcie_to_host,
          sim::Condition &progress, kv::NodeId node = -1);

    /**
     * Atomically enqueue one update. Suspends while the FIFO is full;
     * pays the Table III vFIFO write latency. Returns the entry id.
     */
    sim::Task<std::uint64_t> enqueue(kv::Key key, kv::Value value,
                                     kv::Timestamp ts);

    /** Suspend until entry @p id has drained (applied or skipped). */
    auto
    waitDrained(std::uint64_t id)
    {
        return progress_.until([this, id] { return isDrained(id); });
    }

    bool isDrained(std::uint64_t id) const { return id < drainedThrough_; }

    /** Entries skipped at drain because they were obsolete. */
    std::uint64_t skippedObsolete() const { return skipped_; }

    /** Deepest the queue has ever been (explains Fig. 13). */
    std::size_t peakOccupancy() const { return peak_; }

  private:
    struct Entry
    {
        std::uint64_t id;
        kv::Key key;
        kv::Value value;
        kv::Timestamp ts;
    };
    static_assert(sizeof(Entry) == 32,
                  "id, key, value and a 4-byte TS, padded");

    sim::Process drainLoop();

    sim::Simulator &sim_;
    const simproto::ClusterConfig &cfg_;
    simproto::ReplicaStore &store_;
    sim::Link &pcieToHost_;
    sim::Condition &progress_;
    SlotQueue slots_;
    Ring<Entry> queue_;
    std::uint64_t nextId_ = 0;
    std::uint64_t drainedThrough_ = 0; ///< ids < this are drained
    std::uint64_t skipped_ = 0;
    std::size_t peak_ = 0;
    kv::NodeId node_;
};

/**
 * The durable FIFO: an enqueued update is durable (SNIC NVM). The drain
 * engine pushes entries to the host NVM log in the background.
 */
class DFifo
{
  public:
    /** @param store the node's record store, whose durable state an
     *         enqueued update enters */
    DFifo(sim::Simulator &sim, const simproto::ClusterConfig &cfg,
          simproto::ReplicaStore &store, sim::Link &pcie_to_host,
          sim::Condition &progress, kv::NodeId node = -1);

    /**
     * Atomically enqueue (and thereby persist) one update of
     * @p size_bytes. Suspends while the FIFO is full. The update enters
     * the node's durable state here — this is the durability point. A
     * none @p ts enqueues a marker, which skips it.
     */
    sim::Task<void> enqueue(kv::Key key, kv::Value value,
                            kv::Timestamp ts, std::uint32_t size_bytes);

    /**
     * Persist a protocol marker (e.g. the [PERSIST]sc record) without
     * adding a data update to the durable state.
     */
    sim::Task<void>
    enqueueMarker(std::uint32_t size_bytes)
    {
        return enqueue(0, 0, kv::Timestamp::none(), size_bytes);
    }

    /** Deepest the queue has ever been (explains Fig. 13). */
    std::size_t peakOccupancy() const { return peak_; }

    /** Enqueues that found every slot claimed and had to wait. */
    std::uint64_t fullWaits() const { return slots_.fullWaits(); }

  private:
    sim::Process drainLoop();

    sim::Simulator &sim_;
    const simproto::ClusterConfig &cfg_;
    simproto::ReplicaStore &store_;
    sim::Link &pcieToHost_;
    sim::Condition &progress_;
    SlotQueue slots_;
    Ring<std::uint32_t> queue_; ///< entry sizes in bytes
    std::size_t peak_ = 0;
    kv::NodeId node_;
};

} // namespace minos::snic

#endif // MINOS_SNIC_FIFO_HH
