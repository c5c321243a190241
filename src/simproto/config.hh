/**
 * @file
 * Simulated-machine configuration (paper Tables II and III).
 *
 * Network/SmartNIC timing follows Table III directly; host software-path
 * costs (request dispatch, LLC access, tx-path) are calibration values in
 * the spirit of the paper's "various access latencies of the memory
 * hierarchy of the host are set based on measurements of the CloudLab
 * system".
 */

#ifndef MINOS_SIMPROTO_CONFIG_HH
#define MINOS_SIMPROTO_CONFIG_HH

#include <cstdint>

#include "common/units.hh"
#include "simproto/models.hh"

namespace minos::obs {
class AuditBundle;
class FlightRecorder;
class WritePhaseStats;
} // namespace minos::obs

namespace minos::simproto {

/** Full parameter set of the simulated distributed machine. */
struct ClusterConfig
{
    // ---- Topology (Table II / III) ----
    int numNodes = 5;   ///< 2,4,5(default),6,8,10,16 in the paper
    int hostCores = 5;  ///< busy cores per host
    int snicCores = 8;  ///< SmartNIC cores

    // ---- Synchronization (Table III) ----
    Tick hostSyncNs = 42;  ///< host compare-and-swap
    Tick snicSyncNs = 105; ///< SmartNIC compare-and-swap

    // ---- PCIe between host and (Smart)NIC (Table III) ----
    Tick pcieLatencyNs = 500;
    double pcieBwBytesPerSec = 6.25e9;
    /** Fixed per-message PCIe cost (doorbell/TLP overheads, [43]). */
    Tick pcieMsgOverheadNs = 200;

    // ---- Network link between (Smart)NICs (Table III) ----
    Tick netLatencyNs = 150;
    double netBwBytesPerSec = 7e9;

    // ---- NIC send engine (Table III) ----
    Tick sendInvNs = 200; ///< deposit one INV into the send buffer
    Tick sendAckNs = 100; ///< deposit one ACK/VAL/control message
    Tick interMsgGapNs = 100; ///< between consecutive msgs, no broadcast

    // ---- MINOS-O FIFOs (Table III) ----
    Tick vfifoWriteNs = 465;  ///< enqueue 1KB into the volatile FIFO
    Tick dfifoWriteNs = 1295; ///< enqueue 1KB into the durable FIFO
    int vfifoEntries = 5;     ///< 0 = unlimited
    int dfifoEntries = 5;     ///< 0 = unlimited

    // ---- Emulated NVM (Table II) ----
    Tick persistNsPerKb = 1295;

    // ---- Record/store ----
    std::uint32_t recordBytes = 1024; ///< YCSB default record size
    std::uint64_t numRecords = 100'000;

    // ---- Host software path (CloudLab-calibrated analogues; a 2.1 GHz
    // Xeon E5-2450 eRPC request path costs high hundreds of ns) ----
    Tick clientReqNs = 600; ///< client request ingress/egress processing
    Tick dispatchNs = 250;  ///< eRPC rx dispatch on the host
    Tick llcWriteNs = 250;  ///< write one record into the LLC
    Tick llcReadNs = 150;   ///< read one record from the LLC
    Tick hostSendNs = 250;  ///< host tx-path software cost per message
    Tick bookkeepNs = 100;  ///< ACK bookkeeping per message

    // ---- SmartNIC software/firmware path (BlueField-2-calibrated) ----
    Tick snicDispatchNs = 80;       ///< rx dispatch on the SmartNIC
    Tick snicUnpackPerDestNs = 70; ///< unpack one dest of a batched msg
    Tick coherenceNs = 60; ///< host<->SNIC coherent-field access penalty

    // ---- Diagnostics ----
    /** Optional flight recorder (see obs/recorder.hh); not owned. */
    obs::FlightRecorder *trace = nullptr;
    /** Optional per-phase write latency sink; not owned. */
    obs::WritePhaseStats *phases = nullptr;
    /**
     * Optional online protocol auditors (see obs/audit.hh); not owned.
     * Requires `trace` (the auditors ride the recorder's sink bus);
     * the cluster fills in the AuditConfig and attaches the bundle.
     */
    obs::AuditBundle *audit = nullptr;

    /**
     * Test-only deliberate protocol mutations, used to prove the
     * auditors catch real bugs (tests/audit_test.cc) — the streaming
     * companion of check::CheckConfig's bug* flags. All default off;
     * production tools never set them.
     */
    struct MutationHooks
    {
        /** Coordinator frees the RDLock right after the INV fan-out,
         *  before any ACK (breaks Table I 2c; trips C3). */
        bool releaseRdLockEarly = false;
        /** Follower acknowledges persistency before it is durable
         *  (breaks 3a; trips P1). */
        bool ackBeforePersist = false;
        /** Coordinator's persistency gate settles for one ACK_P short
         *  (breaks 3b; trips P2). */
        bool dropOnePersistAck = false;
        /** Follower sends its gating consistency ACK twice (trips the
         *  ACK-conservation duplicate rule). */
        bool duplicateAck = false;
        /** vFIFO enqueue ignores the configured capacity bound
         *  (MINOS-O; trips the FIFO watchdog). */
        bool ignoreFifoCap = false;
    };
    MutationHooks mutations;

    /** Number of follower nodes for any coordinator. */
    int followers() const { return numNodes - 1; }
};

/**
 * The fabric options toggled in the Fig. 12 ablation. The third
 * mechanism, "Combined" (offload protocol execution to the SmartNIC +
 * selective host/SNIC hardware coherence + WRLock elimination via
 * vFIFO/dFIFO), is the choice of engine: ClusterB runs without it,
 * ClusterO with it. The paper applies those as one unit because they
 * are sub-optimal separately (§VIII-D).
 */
struct OffloadOptions
{
    /** Batch INV/ACK messages between host and SmartNIC over PCIe. */
    bool batching = false;
    /** True network broadcast of INV/VAL messages. */
    bool broadcast = false;

    static OffloadOptions
    minosB()
    {
        return {};
    }

    static OffloadOptions
    minosO()
    {
        return {.batching = true, .broadcast = true};
    }
};

} // namespace minos::simproto

#endif // MINOS_SIMPROTO_CONFIG_HH
