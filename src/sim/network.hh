/**
 * @file
 * Link timing models for the simulated distributed machine (paper
 * Table III).
 *
 * A Link is a unidirectional store-and-forward channel with propagation
 * latency, bandwidth, and optional fixed per-message overhead (used to
 * model per-TLP/doorbell costs on PCIe, cf. Neugebauer et al. [43]).
 * Messages occupy the link back-to-back: a transfer starts when the link
 * is free, takes overhead + size/bandwidth to serialize, then arrives
 * after the propagation latency.
 */

#ifndef MINOS_SIM_NETWORK_HH
#define MINOS_SIM_NETWORK_HH

#include <cstdint>

#include "common/units.hh"
#include "sim/condition.hh"
#include "sim/simulator.hh"

namespace minos::sim {

/** Unidirectional latency/bandwidth link with serialization contention. */
class Link
{
  public:
    /**
     * @param sim owning simulator
     * @param latency propagation delay
     * @param bytes_per_sec bandwidth (0 = infinite)
     * @param per_msg_overhead fixed serialized cost per message
     */
    Link(Simulator &sim, Tick latency, double bytes_per_sec,
         Tick per_msg_overhead = 0);

    /**
     * Occupy the link for one message of @p bytes and return its arrival
     * time. The caller schedules delivery at the returned tick.
     */
    Tick transfer(std::uint64_t bytes);

    /**
     * Like transfer(), but the message only becomes available to the
     * link at @p earliest (used to schedule multi-stage pipelines like
     * host -> PCIe -> NIC -> wire in one shot).
     */
    Tick transferFrom(Tick earliest, std::uint64_t bytes);

    /** Arrival time a message of @p bytes would get, without sending. */
    Tick previewArrival(std::uint64_t bytes) const;

    Tick latency() const { return latency_; }
    Tick busyUntil() const { return busyUntil_; }

    /** Total bytes transferred (for utilization stats). */
    std::uint64_t bytesTransferred() const { return bytes_; }
    std::uint64_t messagesTransferred() const { return messages_; }

  private:
    Tick serialization(std::uint64_t bytes) const;

    Simulator &sim_;
    Tick latency_;
    double bytesPerSec_;
    Tick perMsgOverhead_;
    Tick busyUntil_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t messages_ = 0;
};

/**
 * A serially-reused pipeline stage with per-item service time, e.g. the
 * NIC send engine that deposits one message at a time (Table III: 200 ns
 * per INV, 100 ns per ACK, 100 ns between consecutive messages without
 * broadcast support).
 */
class SerialStage
{
  public:
    /**
     * Occupy the stage for @p service ticks starting no earlier than
     * @p earliest; returns the completion time.
     */
    Tick
    occupyFrom(Tick earliest, Tick service)
    {
        Tick start = std::max(earliest, busyUntil_);
        busyUntil_ = start + service;
        return busyUntil_;
    }

    Tick busyUntil() const { return busyUntil_; }

  private:
    Tick busyUntil_ = 0;
};

/**
 * A pool of identical execution cores. Protocol handlers wrap their
 * compute bursts in compute() so that per-node core counts (5 host
 * cores, 8 SmartNIC cores — Table III) throttle concurrency. Waits and
 * spins are event-driven (eRPC-style run-to-completion loops), so they
 * do not hold a core.
 */
class CorePool
{
  public:
    CorePool(Simulator &sim, int cores)
        : cond_(sim), free_(cores), total_(cores)
    {
    }

    /** Acquire one core, waiting if all are busy. */
    Task<void>
    acquire()
    {
        co_await cond_.until([this] { return free_ > 0; });
        --free_;
    }

    /**
     * Return a core to the pool. One freed core resumes exactly one
     * waiter (the oldest — FIFO handoff); waking the whole herd for a
     * single core would only make the losers re-queue at the same tick.
     * A waiter that loses the core to a same-tick acquirer re-parks
     * at the back of the queue, so the handoff is race-free.
     */
    void
    release()
    {
        MINOS_ASSERT(free_ < total_, "CorePool release overflow");
        ++free_;
        cond_.notifyOne();
    }

    /** Acquire a core, spend @p cost ticks of compute, release. */
    Task<void>
    compute(Tick cost)
    {
        co_await acquire();
        co_await delay(cost);
        release();
    }

    int freeCores() const { return free_; }
    int totalCores() const { return total_; }

  private:
    Condition cond_;
    int free_;
    int total_;
};

} // namespace minos::sim

#endif // MINOS_SIM_NETWORK_HH
