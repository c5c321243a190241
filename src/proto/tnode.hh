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
 * The per-model decisions — a follower's steps for an applied and for
 * an obsolete INV, the ACK each step sends, what each VAL raises, the
 * coordinator's steps and gates — are the shared tables of
 * simproto/models.hh, the ones the simulated engines walk too; this
 * file keeps only the threaded mechanisms. The client thread walks the
 * coordinator schedule up to Return; the rpc threads run the rest.
 *
 * Failure detection and recovery (§III-E): ACK waits carry a timeout;
 * non-responders are declared failed (Ctrl Fail) and writes complete
 * against the shrunken live set. A rejoining node asks the designated
 * (lowest-id live) node for its durable state, one entry per key with
 * a persisted update, applies it to its own durable and volatile
 * state, and is re-announced (Ctrl Joined).
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

#include "kv/record.hh"
#include "net/message.hh"
#include "nvm/log.hh"
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

    /** Blocking [PERSIST]sc transaction (<Lin, Scope> only); one per
     *  scope at a time on a node. */
    void persistScope(net::ScopeId scope);

    /** @{ Introspection for tests. */
    /** The record of @p key; null only for a key out of range. */
    const kv::AtomicRecord *record(kv::Key key) const;
    /** Every key with a persisted update: its durable value and TS. */
    nvm::DurableDb durableDb() const;
    std::uint64_t liveMask() const { return live_.load(); }
    std::uint64_t obsoleteInvs() const { return obsoleteInvs_.load(); }
    /** Scopes with updates still persisting on this node. */
    std::size_t scopesPersisting() const;
    /** @} */

  private:
    friend class ThreadedCluster;

    /** Outstanding coordinator transaction, a write or a [PERSIST]sc
     *  (lock-free counters). */
    struct TxnState
    {
        kv::Key key = 0;
        kv::Timestamp ts = kv::Timestamp::none();
        net::ScopeId scope = 0;
        /** Consistency ACKs in (the combined ACK for Synch). */
        std::atomic<std::uint64_t> ackCMask{0};
        std::atomic<std::uint64_t> ackPMask{0};
        std::atomic<bool> localPersisted{false};
        /** The steps after Return, once write() has answered; null
         *  before that and once a thread has claimed them. */
        std::atomic<const simproto::CoordinatorStep *> tail{nullptr};
    };

    using TxnPtr = std::shared_ptr<TxnState>;

    /** Parked obsolete-INV continuation (non-blocking rpc loop). */
    struct Deferred
    {
        net::Message req;
        std::uint64_t observedPack;
        /** Next step of obsoleteSteps_ to run. */
        std::uint8_t step = 0;
    };

    /** Background persist work item. */
    struct PersistJob
    {
        kv::Key key;
        kv::Value value;
        kv::Timestamp ts;
        net::ScopeId scope;
        bool awaited = false; ///< a coordinator gate waits for it
    };

    // ---- primitives ----
    /** The record of @p key. @pre key < numRecords */
    kv::AtomicRecord &at(kv::Key key);
    kv::Timestamp makeWriteTs(kv::Key key, kv::AtomicRecord &rec);
    static bool obsolete(const kv::AtomicRecord &rec,
                         const kv::Timestamp &ts);
    void snatchRdLock(kv::AtomicRecord &rec, const kv::Timestamp &ts);
    void releaseRdLockIfOwner(kv::AtomicRecord &rec,
                              const kv::Timestamp &ts);
    void acquireWrLock(kv::AtomicRecord &rec);
    void releaseWrLock(kv::AtomicRecord &rec);
    void spinPersistLatency(std::uint32_t bytes) const;
    /** Make one update durable: the NVM latency, then the key's
     *  durable record takes it if newer. */
    void persist(kv::Key key, kv::Value value, const kv::Timestamp &ts);
    /** Complete every local persist of @p scope, then persist the
     *  [PERSIST]sc marker itself. */
    void flushScope(net::ScopeId scope);
    /** Whether step @p s of obsoleteSteps_ may run: a spin
     *  (ConsistencySpin, PersistencySpin) holds until the newer write
     *  @p observed_pack is in; an ACK never waits. */
    static bool stepReady(const kv::AtomicRecord &rec,
                          simproto::FollowerStep s,
                          std::uint64_t observed_pack);
    /** handleObsolete() of a cut client-write: every spin of
     *  obsoleteSteps_, blocking, without the ACKs (the rpc threads run
     *  a follower's through advanceDeferred, non-blocking). */
    void handleObsoleteBlocking(const kv::AtomicRecord &rec,
                                std::uint64_t observed_pack);

    // ---- membership / failure detection ----
    std::uint64_t followerMask() const;
    void declareFailed(kv::NodeId n);
    void onCtrl(const recovery::CtrlMsg &msg);

    // ---- messaging ----
    void broadcastToLive(net::Message tmpl);
    void respond(const net::Message &req, net::MsgType type);

    // ---- coordinator bookkeeping ----
    /** Register the transaction @p m opens, under net::txnOf(m). */
    TxnPtr registerTxn(const net::Message &m);
    TxnPtr findTxn(const kv::WriteId &id);
    void unregisterTxn(const kv::WriteId &id);
    /** Wait until @p acked() covers every live follower, declaring
     *  the missing ones failed at each ACK timeout. */
    template <typename Acked>
    void waitAcks(const char *what, Acked acked);

    // ---- coordinator schedule (simproto/models.hh) ----
    /** Run a raise, the RDLock release or a VAL send; nothing else. */
    void runStep(simproto::CoordinatorStep s, kv::AtomicRecord &rec,
                 const TxnState &txn);
    /** Run the steps after Return once their gate holds (any thread). */
    void finishTail(const TxnPtr &txn);

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
    /** Follower steps after applying an INV / for an obsolete INV. */
    const simproto::FollowerSchedule appliedSteps_;
    const simproto::FollowerSchedule obsoleteSteps_;
    /** Coordinator steps after the INV fan-out. */
    const simproto::CoordinatorSchedule coordinatorSteps_;

    /** The replica of every record, indexed by key. */
    std::vector<kv::AtomicRecord> store_;
    /** The durable (value, TS) of every record, indexed by key. */
    mutable std::mutex durableMutex_;
    std::vector<nvm::DurableRecord> durable_;

    std::atomic<std::uint64_t> live_;
    std::atomic<bool> running_{false};
    std::vector<std::thread> rpcThreads_;
    std::thread persister_;

    std::mutex txnMutex_;
    std::unordered_map<kv::WriteId, TxnPtr, kv::WriteId::Hash> txns_;

    mutable std::mutex scopeMutex_;
    /** Background persists outstanding per scope; a scope with none has
     *  no entry. */
    std::unordered_map<net::ScopeId, int> scopeUnpersisted_;

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
