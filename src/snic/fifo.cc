#include "fifo.hh"

#include <algorithm>

#include "obs/phase.hh"

namespace minos::snic {

using kv::Key;
using kv::Timestamp;
using kv::Value;

namespace {

/** Scale a per-1KB FIFO write latency to the record size. */
Tick
scaledFifoLatency(Tick ns_per_kb, std::uint32_t bytes)
{
    if (bytes == 0)
        return 0;
    Tick t = static_cast<Tick>(static_cast<double>(ns_per_kb) *
                               static_cast<double>(bytes) / 1024.0);
    return t > 0 ? t : 1;
}

} // namespace

// ---------------------------------------------------------------------
// VFifo
// ---------------------------------------------------------------------

VFifo::VFifo(sim::Simulator &sim, const simproto::ClusterConfig &cfg,
             kv::SimStore &store, sim::Link &pcie_to_host,
             sim::Condition &progress, kv::NodeId node)
    : sim_(sim), cfg_(cfg), store_(store), pcieToHost_(pcie_to_host),
      progress_(progress), slots_(sim), node_(node)
{
    sim_.spawn(drainLoop());
}

sim::Task<std::uint64_t>
VFifo::enqueue(Key key, Value value, Timestamp ts)
{
    const std::size_t cap =
        cfg_.vfifoEntries > 0
            ? static_cast<std::size_t>(cfg_.vfifoEntries)
            : ~std::size_t{0};
    // The ignoreFifoCap test mutation drops the back-pressure wait so
    // the FIFO watchdog can prove it notices over-capacity depths.
    if (!cfg_.mutations.ignoreFifoCap) {
        // Claim the slot before the doorbell write suspends: the entry
        // must have a home by the time the write lands, or concurrent
        // enqueuers would push the occupancy past the hardware cap.
        co_await slots_.until(
            [&] { return queue_.size() + reserved_ < cap; });
        ++reserved_;
    }
    co_await sim::delay(
        scaledFifoLatency(cfg_.vfifoWriteNs, cfg_.recordBytes));
    if (!cfg_.mutations.ignoreFifoCap)
        --reserved_;
    std::uint64_t id = nextId_++;
    queue_.push_back(Entry{id, key, value, ts});
    peak_ = std::max(peak_, queue_.size());
    if (cfg_.trace)
        cfg_.trace->record(sim_.now(), obs::Category::Fifo,
                           obs::EventKind::FifoDepth, node_, /*a0=*/0,
                           static_cast<std::int64_t>(queue_.size()));
    slots_.notifyAll(); // wakes the drain loop
    co_return id;
}

sim::Task<void>
VFifo::waitDrained(std::uint64_t id)
{
    co_await progress_.until([&] { return isDrained(id); });
}

sim::Process
VFifo::drainLoop()
{
    // The drain engine is pipelined: it issues the next DMA as soon as
    // the previous one has been accepted by the PCIe channel (the
    // channel's serialization paces it); the LLC update lands at DMA
    // arrival. Arrivals on one link are monotonic, so entries still
    // apply in FIFO order.
    for (;;) {
        co_await slots_.until([&] { return !queue_.empty(); });
        Entry e = queue_.front();
        queue_.pop_front();
        slots_.notifyAll(); // the slot frees when the engine claims it

        // The hardware checks obsoleteness before updating the LLC
        // (§V-B.4): stale entries are skipped without a DMA.
        kv::Record &rec = store_.at(e.key);
        if (!(rec.volatileTs > e.ts)) {
            Tick arrival = pcieToHost_.transfer(cfg_.recordBytes);
            VFifo *self = this;
            sim_.schedule(arrival, [self, e] {
                kv::Record &r = self->store_.at(e.key);
                // Re-check at apply time: a newer entry cannot have
                // overtaken us (in-order arrivals), but the issue-time
                // check is the architectural one; keep both.
                if (!(r.volatileTs > e.ts)) {
                    r.value = e.value;
                    r.volatileTs = e.ts;
                } else {
                    ++self->skipped_;
                }
                self->drainedThrough_ =
                    std::max(self->drainedThrough_, e.id + 1);
                self->progress_.notifyAll();
            });
            // Pace the engine by the channel's serialization, not the
            // end-to-end completion.
            Tick busy = pcieToHost_.busyUntil();
            if (busy > sim_.now())
                co_await sim::delay(busy - sim_.now());
        } else {
            ++skipped_;
            if (cfg_.trace)
                cfg_.trace->record(
                    sim_.now(), obs::Category::Fifo,
                    obs::EventKind::VfifoSkipped, node_,
                    static_cast<std::int64_t>(e.id),
                    static_cast<std::int64_t>(e.ts.pack()));
            drainedThrough_ = std::max(drainedThrough_, e.id + 1);
            progress_.notifyAll();
        }
    }
}

// ---------------------------------------------------------------------
// DFifo
// ---------------------------------------------------------------------

DFifo::DFifo(sim::Simulator &sim, const simproto::ClusterConfig &cfg,
             nvm::DurableLog &log, sim::Link &pcie_to_host,
             sim::Condition &progress, kv::NodeId node)
    : sim_(sim), cfg_(cfg), log_(log), pcieToHost_(pcie_to_host),
      progress_(progress), slots_(sim), node_(node)
{
    sim_.spawn(drainLoop());
}

sim::Task<void>
DFifo::enqueue(Key key, Value value, Timestamp ts,
               std::uint32_t size_bytes)
{
    // The MINOS-O persist phase is the durable enqueue; instrumenting
    // it here covers the coordinator, follower, and background paths.
    Tick t0 = sim_.now();
    co_await enqueueMarker(size_bytes);
    // Durability point: the update now lives in the SNIC's NVM.
    log_.append({key, value, ts});
    if (cfg_.trace)
        cfg_.trace->record(sim_.now(), obs::Category::Protocol,
                           obs::EventKind::PersistDone, node_,
                           static_cast<std::int64_t>(key),
                           static_cast<std::int64_t>(ts.pack()));
    obs::recordSpan(cfg_.trace, cfg_.phases, obs::Phase::Persist, t0,
                    sim_.now(), node_,
                    static_cast<std::int64_t>(ts.pack()));
    progress_.notifyAll();
}

sim::Task<void>
DFifo::enqueueMarker(std::uint32_t size_bytes)
{
    const std::size_t cap =
        cfg_.dfifoEntries > 0
            ? static_cast<std::size_t>(cfg_.dfifoEntries)
            : ~std::size_t{0};
    // Slot reservation mirrors the vFIFO: claim before the write
    // latency so concurrent enqueuers cannot overshoot the cap.
    co_await slots_.until([&] { return queue_.size() + reserved_ < cap; });
    ++reserved_;
    co_await sim::delay(
        scaledFifoLatency(cfg_.dfifoWriteNs, size_bytes));
    --reserved_;
    queue_.push_back(size_bytes);
    peak_ = std::max(peak_, queue_.size());
    if (cfg_.trace)
        cfg_.trace->record(sim_.now(), obs::Category::Fifo,
                           obs::EventKind::FifoDepth, node_, /*a0=*/1,
                           static_cast<std::int64_t>(queue_.size()));
    slots_.notifyAll();
    progress_.notifyAll();
}

sim::Process
DFifo::drainLoop()
{
    // Pipelined like the vFIFO engine: push the already-durable entry
    // to the host NVM log in the background, paced by the DMA channel's
    // serialization (the host NVM's per-entry persist latency is not an
    // inverse throughput; writes stream into the log).
    for (;;) {
        co_await slots_.until([&] { return !queue_.empty(); });
        std::uint32_t bytes = queue_.front();
        queue_.pop_front();
        slots_.notifyAll();

        // Nothing waits for a dFIFO entry to drain (it is durable at
        // enqueue). The arrival still notifies progress_: that wakeup
        // is part of the pinned event order.
        Tick arrival = pcieToHost_.transfer(bytes);
        sim::Condition *progress = &progress_;
        sim_.schedule(arrival, [progress] { progress->notifyAll(); });
        Tick busy = pcieToHost_.busyUntil();
        if (busy > sim_.now())
            co_await sim::delay(busy - sim_.now());
    }
}

} // namespace minos::snic
