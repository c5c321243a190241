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
 *   is enqueued; the drain engine pushes entries to the host NVM log in
 *   the background, off the critical path.
 *
 * Both queues are bounded (Table III: 5 entries each; Fig. 13 sweeps the
 * size); enqueues block while the queue is full.
 */

#ifndef MINOS_SNIC_FIFO_HH
#define MINOS_SNIC_FIFO_HH

#include <cstdint>
#include <deque>

#include "kv/store.hh"
#include "nvm/log.hh"
#include "sim/condition.hh"
#include "sim/network.hh"
#include "simproto/config.hh"

namespace minos::snic {

/** Sentinel for "no FIFO entry". */
inline constexpr std::uint64_t noEntry = ~0ull;

/**
 * The volatile FIFO: serializes updates to the host LLC and filters
 * obsolete ones, eliminating the WRLock.
 */
class VFifo
{
  public:
    /**
     * @param store the node's LLC-resident record store
     * @param pcie_to_host the SNIC->host PCIe link the DMA engine shares
     * @param progress node-wide progress condition (notified on LLC
     *        updates so coherent-field spins wake up)
     */
    VFifo(sim::Simulator &sim, const simproto::ClusterConfig &cfg,
          kv::SimStore &store, sim::Link &pcie_to_host,
          sim::Condition &progress, kv::NodeId node = -1);

    /**
     * Atomically enqueue one update. Suspends while the FIFO is full;
     * pays the Table III vFIFO write latency. Returns the entry id.
     */
    sim::Task<std::uint64_t> enqueue(kv::Key key, kv::Value value,
                                     kv::Timestamp ts);

    /** Suspend until entry @p id has drained (applied or skipped). */
    sim::Task<void> waitDrained(std::uint64_t id);

    bool
    isDrained(std::uint64_t id) const
    {
        return id == noEntry || id < drainedThrough_;
    }

    /** Entries skipped at drain because they were obsolete. */
    std::uint64_t skippedObsolete() const { return skipped_; }

    std::size_t occupancy() const { return queue_.size(); }

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

    sim::Process drainLoop();

    sim::Simulator &sim_;
    const simproto::ClusterConfig &cfg_;
    kv::SimStore &store_;
    sim::Link &pcieToHost_;
    sim::Condition &progress_;
    sim::Condition slots_;
    std::deque<Entry> queue_;
    std::size_t reserved_ = 0; ///< slots claimed, write still in flight
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
    DFifo(sim::Simulator &sim, const simproto::ClusterConfig &cfg,
          nvm::DurableLog &log, sim::Link &pcie_to_host,
          sim::Condition &progress, kv::NodeId node = -1);

    /**
     * Atomically enqueue (and thereby persist) one update of
     * @p size_bytes. Suspends while the FIFO is full. The entry is
     * appended to the durable log here — this is the durability point.
     */
    sim::Task<void> enqueue(kv::Key key, kv::Value value,
                            kv::Timestamp ts, std::uint32_t size_bytes);

    /**
     * Persist a protocol marker (e.g. the [PERSIST]sc record) without
     * adding a data entry to the durable log.
     */
    sim::Task<void> enqueueMarker(std::uint32_t size_bytes);

    std::size_t occupancy() const { return queue_.size(); }

    /** Deepest the queue has ever been (explains Fig. 13). */
    std::size_t peakOccupancy() const { return peak_; }

  private:
    sim::Process drainLoop();

    sim::Simulator &sim_;
    const simproto::ClusterConfig &cfg_;
    nvm::DurableLog &log_;
    sim::Link &pcieToHost_;
    sim::Condition &progress_;
    sim::Condition slots_;
    std::deque<std::uint32_t> queue_; ///< entry sizes in bytes
    std::size_t reserved_ = 0; ///< slots claimed, write still in flight
    std::size_t peak_ = 0;
    kv::NodeId node_;
};

} // namespace minos::snic

#endif // MINOS_SNIC_FIFO_HH
