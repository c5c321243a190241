/**
 * @file
 * Threaded MINOS-B: the paper's §III algorithms running on real OS
 * threads with real atomics — the "distributed machine" implementation
 * of §IV, with the wire replaced by the in-process loopback fabric.
 *
 * Division of labor:
 *  - Client threads (any external thread) run the Coordinator write/read
 *    algorithms, blocking with genuine spins on ACK masks and lock words.
 *  - Per node, `rpcThreads` event-loop threads poll the fabric and run
 *    Follower handlers and ACK/VAL bookkeeping; handlers that must spin
 *    (obsolete INVs waiting for ConsistencySpin/PersistencySpin) are
 *    parked on a deferred list re-checked every loop iteration, so the
 *    loop never blocks.
 *  - One persister thread per node emulates the NVM write latency and
 *    retires background persists (Event/Scope and the REnf coordinator).
 *
 * Failure detection and recovery (§III-E): ACK waits carry a timeout;
 * non-responders are declared failed (Ctrl Fail) and writes complete
 * against the shrunken live set. A rejoining node asks the designated
 * (lowest-id live) node for the committed log, replays it into durable
 * and volatile state, and is re-announced (Ctrl Joined).
 */

#ifndef MINOS_PROTO_TNODE_HH
#define MINOS_PROTO_TNODE_HH

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "kv/hashtable.hh"
#include "net/message.hh"
#include "nvm/log.hh"
#include "nvm/model.hh"
#include "recovery/ctrl.hh"
#include "runtime/fabric.hh"
#include "simproto/models.hh"

namespace minos::proto {

using simproto::PersistModel;

/** Configuration of the threaded cluster. */
struct ThreadedConfig
{
    int numNodes = 3;
    PersistModel model = PersistModel::Synch;
    Tick persistNsPerKb = 1295;
    std::uint32_t recordBytes = 1024;
    std::uint64_t numRecords = 1024;
    /** One-way wire latency injected by the fabric. */
    std::chrono::nanoseconds wireLatency{2000};
    /** ACK-wait timeout that triggers failure detection. */
    std::chrono::milliseconds ackTimeout{50};
    /** Event-loop threads per node. */
    int rpcThreads = 2;
};

/** Result of a threaded client-write. */
struct WriteResult
{
    kv::Timestamp ts = kv::Timestamp::none();
    bool obsolete = false;
};

class ThreadedCluster;

/** One node of the threaded MINOS-B cluster. */
class ThreadedNode
{
  public:
    ThreadedNode(ThreadedCluster &cluster, const ThreadedConfig &cfg,
                 kv::NodeId id);
    ~ThreadedNode();

    ThreadedNode(const ThreadedNode &) = delete;
    ThreadedNode &operator=(const ThreadedNode &) = delete;

    void start();
    void stop();

    kv::NodeId id() const { return id_; }

    /** Blocking Coordinator client-write (callable from any thread). */
    WriteResult write(kv::Key key, kv::Value value,
                      net::ScopeId scope = 0);

    /** Blocking local client-read. */
    kv::Value read(kv::Key key);

    /** Blocking [PERSIST]sc transaction (<Lin, Scope> only). */
    void persistScope(net::ScopeId scope);

    /** @{ Introspection for tests. */
    const kv::AtomicRecord *record(kv::Key key) const;
    nvm::DurableDb durableDb() const;
    std::uint64_t liveMask() const { return live_.load(); }
    std::size_t logSize() const { return log_.size(); }
    /** Fold the whole committed log into its snapshot (compaction). */
    void compactLog() { log_.compact(log_.size()); }
    std::uint64_t obsoleteInvs() const { return obsoleteInvs_.load(); }
    /** @} */

  private:
    friend class ThreadedCluster;

    /** Outstanding coordinator transaction (lock-free counters). */
    struct TxnState
    {
        kv::Key key = 0;
        kv::Timestamp ts = kv::Timestamp::none();
        std::atomic<std::uint64_t> ackMask{0};
        std::atomic<std::uint64_t> ackCMask{0};
        std::atomic<std::uint64_t> ackPMask{0};
        std::atomic<bool> localPersistDone{false};
        std::atomic<bool> finalized{false};
    };

    using TxnPtr = std::shared_ptr<TxnState>;

    /** Parked obsolete-INV continuation (non-blocking rpc loop). */
    struct Deferred
    {
        net::Message req;
        std::uint64_t observedPack;
        int stage = 0;
        std::chrono::steady_clock::time_point t0;
    };

    /** Background persist work item. */
    struct PersistJob
    {
        kv::Key key;
        kv::Value value;
        kv::Timestamp ts;
        net::ScopeId scope;
        bool renfCoordinator = false;
    };

    // ---- primitives ----
    kv::Timestamp makeWriteTs(kv::AtomicRecord &rec);
    static bool obsolete(const kv::AtomicRecord &rec,
                         const kv::Timestamp &ts);
    void snatchRdLock(kv::AtomicRecord &rec, const kv::Timestamp &ts);
    void releaseRdLockIfOwner(kv::AtomicRecord &rec,
                              const kv::Timestamp &ts);
    void acquireWrLock(kv::AtomicRecord &rec);
    void releaseWrLock(kv::AtomicRecord &rec);
    void spinPersistLatency(std::uint32_t bytes) const;
    void handleObsoleteBlocking(kv::AtomicRecord &rec,
                                std::uint64_t observed_pack);

    // ---- membership / failure detection ----
    std::uint64_t followerMask() const;
    void declareFailed(kv::NodeId n);
    void onCtrl(const recovery::CtrlMsg &msg);

    // ---- messaging ----
    void broadcastToLive(net::Message tmpl);
    void respond(const net::Message &req, net::MsgType type);

    // ---- coordinator bookkeeping ----
    TxnPtr registerTxn(kv::Key key, const kv::Timestamp &ts);
    TxnPtr findTxn(kv::Key key, const kv::Timestamp &ts);
    void unregisterTxn(kv::Key key, const kv::Timestamp &ts);
    bool waitMask(const std::atomic<std::uint64_t> &mask,
                  const char *what);
    void maybeFinalizeRenf(kv::Key key, const kv::Timestamp &ts,
                           const TxnPtr &txn);

    // ---- rpc loop ----
    void rpcLoop();
    void handleEnvelope(runtime::Envelope env);
    void onInv(const net::Message &msg);
    void onAck(const net::Message &msg);
    void onVal(const net::Message &msg);
    void onPersistSc(const net::Message &msg);
    void processDeferred();
    bool advanceDeferred(Deferred &d);

    // ---- persister ----
    void persisterLoop();
    void enqueuePersist(PersistJob job);

    ThreadedCluster &cluster_;
    const ThreadedConfig cfg_;
    kv::NodeId id_;

    kv::HashTable store_;
    nvm::DurableLog log_;
    nvm::NvmModel nvm_;

    std::atomic<std::uint64_t> live_;
    std::atomic<bool> running_{false};
    std::vector<std::thread> rpcThreads_;
    std::thread persister_;

    std::mutex txnMutex_;
    std::unordered_map<simproto::TxnKey, TxnPtr, simproto::TxnKeyHash>
        txns_;

    std::mutex scopeMutex_;
    std::unordered_map<net::ScopeId, int> scopeUnpersisted_;
    std::unordered_map<net::ScopeId, std::uint64_t> scopeAckMask_;

    std::mutex deferredMutex_;
    std::vector<Deferred> deferred_;

    std::mutex persistMutex_;
    std::vector<PersistJob> persistQueue_;

    std::atomic<std::uint64_t> obsoleteInvs_{0};
};

/** The threaded MINOS-B cluster: fabric + nodes + lifecycle. */
class ThreadedCluster
{
  public:
    explicit ThreadedCluster(const ThreadedConfig &cfg);
    ~ThreadedCluster();

    ThreadedCluster(const ThreadedCluster &) = delete;
    ThreadedCluster &operator=(const ThreadedCluster &) = delete;

    ThreadedNode &node(kv::NodeId id);
    runtime::Fabric &fabric() { return fabric_; }
    const ThreadedConfig &config() const { return cfg_; }

    /** Disconnect a node (crash / network partition injection). */
    void failNode(kv::NodeId id);

    /** Reconnect a node and run the §III-E rejoin protocol. */
    void healAndRejoin(kv::NodeId id);

  private:
    ThreadedConfig cfg_;
    runtime::Fabric fabric_;
    std::vector<std::unique_ptr<ThreadedNode>> nodes_;
};

} // namespace minos::proto

#endif // MINOS_PROTO_TNODE_HH
