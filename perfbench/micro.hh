/**
 * @file
 * Per-layer microbenchmarks of the public primitives the simulation
 * workloads spend host time in. Each one is warmed before it is timed,
 * is timed several times, and reports the median ns per call. The
 * sizes come from what the workload itself hit (for example, the timed
 * heap is exercised at the workload's peak heap depth), so a number
 * here can be multiplied by a per-op call count from the same workload.
 */

#ifndef MINOS_PERFBENCH_MICRO_HH
#define MINOS_PERFBENCH_MICRO_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kv/record.hh"
#include "obs/audit.hh"
#include "obs/recorder.hh"
#include "workload/ycsb.hh"

namespace minos::perfbench {

/** Timed-event schedule + dispatch with @p depth timers outstanding. */
double afterNs(std::size_t depth);

/** Same-tick `after(0, ...)` schedule + dispatch, @p width chains. */
double resumeSoonNs(std::size_t width);

/** One Condition wakeup (notifyAll + resume) with @p waiters waiting. */
double condNotifyNs(int waiters);

/** One CorePool::compute() call, @p contenders processes on @p cores. */
double corePoolComputeNs(int cores, int contenders);

/** One Link::transfer() of @p bytes. */
double linkTransferNs(std::uint64_t bytes);

/** One SerialStage::occupyFrom(). */
double serialStageNs();

/** One Mailbox send + receive hand-off between two processes. */
double mailboxNs();

/** One SimStore::at() access over the workload's key stream. */
double storeAtNs(std::uint64_t records, const std::vector<kv::Key> &keys);

/** SimStore construction cost per record. */
double storeSetupNsPerRecord(std::uint64_t records);

/** One DurableLog::append() into a log grown to @p entries. */
double logAppendNs(std::size_t entries);

/** One FlightRecorder::record() with no sink attached. */
double recordNs();

/** One FlightRecorder::record() with one counting sink attached. */
double recordSinkNs();

/** Per-record cost of each audit sink, replaying @p stream into it. */
struct AuditReplayNs
{
    double index = 0;
    double consistency = 0;
    double persistency = 0;
    double acks = 0;
    double fifo = 0;
};

AuditReplayNs auditReplayNs(const obs::AuditConfig &cfg,
                            const std::vector<obs::Record> &stream);

/** YcsbGenerator::stream() cost per generated op. */
double ycsbGenNsPerOp(const workload::YcsbConfig &cfg, int nodes,
                      std::uint64_t requestsPerNode);

/** One operator new + delete pair of a coroutine-frame-sized block. */
double allocNs();

} // namespace minos::perfbench

#endif // MINOS_PERFBENCH_MICRO_HH
