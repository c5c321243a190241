#include "tnode.hh"

#include <algorithm>

#include "common/logging.hh"

namespace minos::proto {

using kv::AtomicRecord;
using kv::Key;
using kv::NodeId;
using kv::Timestamp;
using kv::Value;
using net::Message;
using net::MsgType;
using net::ScopeId;
using recovery::CtrlMsg;
using recovery::CtrlType;
using recovery::nodeBit;
using simproto::ackCType;
using simproto::invType;
using simproto::isScopeModel;
using simproto::tracksPersistPerWrite;
using simproto::txnKey;
using simproto::usesSplitAcks;
using simproto::valCType;

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// ThreadedNode lifecycle
// ---------------------------------------------------------------------

ThreadedNode::ThreadedNode(ThreadedCluster &cluster,
                           const ThreadedConfig &cfg, NodeId id)
    : cluster_(cluster), cfg_(cfg), id_(id),
      store_(std::max<std::size_t>(64, cfg.numRecords * 2)),
      nvm_(cfg.persistNsPerKb),
      live_((std::uint64_t{1} << cfg.numNodes) - 1)
{
}

ThreadedNode::~ThreadedNode()
{
    stop();
}

void
ThreadedNode::start()
{
    if (running_.exchange(true))
        return;
    for (int i = 0; i < cfg_.rpcThreads; ++i)
        rpcThreads_.emplace_back([this] { rpcLoop(); });
    persister_ = std::thread([this] { persisterLoop(); });
}

void
ThreadedNode::stop()
{
    if (!running_.exchange(false))
        return;
    for (auto &t : rpcThreads_)
        t.join();
    rpcThreads_.clear();
    if (persister_.joinable())
        persister_.join();
}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

Timestamp
ThreadedNode::makeWriteTs(AtomicRecord &rec)
{
    std::int64_t guard =
        rec.localVersionGuard.load(std::memory_order_acquire);
    std::int64_t ver;
    do {
        std::int64_t vol = Timestamp::unpack(
                               rec.volatileTs.load(
                                   std::memory_order_acquire))
                               .version;
        ver = std::max(vol + 1, guard);
    } while (!rec.localVersionGuard.compare_exchange_weak(
        guard, ver + 1, std::memory_order_acq_rel));
    return Timestamp{ver, id_};
}

bool
ThreadedNode::obsolete(const AtomicRecord &rec, const Timestamp &ts)
{
    return rec.volatileTs.load(std::memory_order_acquire) > ts.pack();
}

void
ThreadedNode::snatchRdLock(AtomicRecord &rec, const Timestamp &ts)
{
    // Identical semantics to raising a timestamp: grab when free (none
    // packs below everything) or snatch from an older write.
    AtomicRecord::raiseTs(rec.rdLockOwner, ts);
}

void
ThreadedNode::releaseRdLockIfOwner(AtomicRecord &rec,
                                   const Timestamp &ts)
{
    std::uint64_t expected = ts.pack();
    rec.rdLockOwner.compare_exchange_strong(
        expected, Timestamp::none().pack(), std::memory_order_acq_rel);
}

void
ThreadedNode::acquireWrLock(AtomicRecord &rec)
{
    while (rec.wrLock.exchange(true, std::memory_order_acquire))
        std::this_thread::yield();
}

void
ThreadedNode::releaseWrLock(AtomicRecord &rec)
{
    rec.wrLock.store(false, std::memory_order_release);
}

void
ThreadedNode::spinPersistLatency(std::uint32_t bytes) const
{
    auto until = Clock::now() +
                 std::chrono::nanoseconds(nvm_.persistLatency(bytes));
    while (Clock::now() < until) {
        // Emulated NVM write (paper Table II): busy-wait the medium's
        // latency, like the paper's emulation on CloudLab.
    }
}

void
ThreadedNode::handleObsoleteBlocking(AtomicRecord &rec,
                                     std::uint64_t observed_pack)
{
    // ConsistencySpin: a real spin on the coherent glb_volatileTS.
    while (rec.glbVolatileTs.load(std::memory_order_acquire) <
           observed_pack)
        std::this_thread::yield();
    if (simproto::needsPersistencySpin(cfg_.model)) {
        while (rec.glbDurableTs.load(std::memory_order_acquire) <
               observed_pack)
            std::this_thread::yield();
    }
}

// ---------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------

std::uint64_t
ThreadedNode::followerMask() const
{
    return live_.load(std::memory_order_acquire) & ~nodeBit(id_);
}

void
ThreadedNode::declareFailed(NodeId n)
{
    std::uint64_t bit = nodeBit(n);
    if (!(live_.fetch_and(~bit, std::memory_order_acq_rel) & bit))
        return; // already declared
    MINOS_WARN("node ", id_, ": declaring node ", n,
               " failed (ACK timeout)");
    // Alert all other live nodes (paper §III-E).
    for (int d = 0; d < cfg_.numNodes; ++d) {
        if (d == id_ || d == n ||
            !recovery::isLive(live_.load(), static_cast<NodeId>(d)))
            continue;
        CtrlMsg fail;
        fail.type = CtrlType::Fail;
        fail.src = id_;
        fail.dst = static_cast<NodeId>(d);
        fail.subject = n;
        cluster_.fabric().send(fail);
    }
}

// ---------------------------------------------------------------------
// Messaging
// ---------------------------------------------------------------------

void
ThreadedNode::broadcastToLive(Message tmpl)
{
    std::uint64_t targets = followerMask();
    for (int d = 0; d < cfg_.numNodes; ++d) {
        if (!(targets & nodeBit(static_cast<NodeId>(d))))
            continue;
        Message m = tmpl;
        m.src = id_;
        m.dst = static_cast<NodeId>(d);
        cluster_.fabric().send(m);
    }
}

void
ThreadedNode::respond(const Message &req, MsgType type)
{
    cluster_.fabric().send(net::makeResponse(req, type));
}

// ---------------------------------------------------------------------
// Coordinator bookkeeping
// ---------------------------------------------------------------------

ThreadedNode::TxnPtr
ThreadedNode::registerTxn(Key key, const Timestamp &ts)
{
    auto txn = std::make_shared<TxnState>();
    txn->key = key;
    txn->ts = ts;
    std::lock_guard<std::mutex> guard(txnMutex_);
    auto [it, inserted] = txns_.emplace(txnKey(key, ts), txn);
    MINOS_ASSERT(inserted, "duplicate threaded TS_WR");
    return txn;
}

ThreadedNode::TxnPtr
ThreadedNode::findTxn(Key key, const Timestamp &ts)
{
    std::lock_guard<std::mutex> guard(txnMutex_);
    auto it = txns_.find(txnKey(key, ts));
    return it == txns_.end() ? nullptr : it->second;
}

void
ThreadedNode::unregisterTxn(Key key, const Timestamp &ts)
{
    std::lock_guard<std::mutex> guard(txnMutex_);
    txns_.erase(txnKey(key, ts));
}

bool
ThreadedNode::waitMask(const std::atomic<std::uint64_t> &mask,
                       const char *what)
{
    auto deadline = Clock::now() + cfg_.ackTimeout;
    for (;;) {
        std::uint64_t required = followerMask();
        if ((mask.load(std::memory_order_acquire) & required) ==
            required)
            return true;
        if (Clock::now() > deadline) {
            std::uint64_t missing =
                required & ~mask.load(std::memory_order_acquire);
            MINOS_WARN("node ", id_, ": timeout waiting ", what);
            for (int n = 0; n < cfg_.numNodes; ++n) {
                if (missing & nodeBit(static_cast<NodeId>(n)))
                    declareFailed(static_cast<NodeId>(n));
            }
            deadline = Clock::now() + cfg_.ackTimeout;
        }
        std::this_thread::yield();
    }
}

void
ThreadedNode::maybeFinalizeRenf(Key key, const Timestamp &ts,
                                const TxnPtr &txn)
{
    if (cfg_.model != PersistModel::REnf)
        return;
    // The tail retires the txn, after which further ACKs count as
    // stray: it must wait for every ACK_C too, not only the ACK_Ps, or an
    // ACK_C popped by another rpc thread after the last ACK_P is lost and
    // write() times out waiting for it.
    std::uint64_t required = followerMask();
    if ((txn->ackCMask.load(std::memory_order_acquire) & required) !=
            required ||
        (txn->ackPMask.load(std::memory_order_acquire) & required) !=
            required ||
        !txn->localPersistDone.load(std::memory_order_acquire))
        return;
    if (txn->finalized.exchange(true, std::memory_order_acq_rel))
        return;
    AtomicRecord &rec = store_.getOrCreate(key);
    AtomicRecord::raiseTs(rec.glbDurableTs, ts);
    releaseRdLockIfOwner(rec, ts);
    Message val;
    val.type = MsgType::VAL;
    val.key = key;
    val.tsWr = ts;
    val.sizeBytes = net::controlMsgBytes;
    broadcastToLive(val);
    unregisterTxn(key, ts);
}

// ---------------------------------------------------------------------
// Client API (Coordinator algorithms, Fig. 2 / Fig. 3)
// ---------------------------------------------------------------------

WriteResult
ThreadedNode::write(Key key, Value value, ScopeId scope)
{
    MINOS_ASSERT(running_.load(), "node not started");
    AtomicRecord &rec = store_.getOrCreate(key);
    Timestamp ts = makeWriteTs(rec);
    WriteResult res{ts, false};

    // Line 5: early obsoleteness check.
    if (obsolete(rec, ts)) {
        res.obsolete = true;
        handleObsoleteBlocking(rec, rec.volatileTs.load());
        return res;
    }

    // Lines 8-9: Snatch RDLock, grab WRLock.
    snatchRdLock(rec, ts);
    acquireWrLock(rec);

    TxnPtr txn;
    // Line 10: final check under the WRLock.
    if (!obsolete(rec, ts)) {
        txn = registerTxn(key, ts);
        Message m;
        m.type = invType(cfg_.model);
        m.key = key;
        m.tsWr = ts;
        m.value = value;
        m.scope = scope;
        m.sizeBytes = cfg_.recordBytes + net::controlMsgBytes;
        broadcastToLive(m);
        rec.value.store(value, std::memory_order_release);
        AtomicRecord::raiseTs(rec.volatileTs, ts);
        releaseWrLock(rec);
    } else {
        res.obsolete = true;
        std::uint64_t observed = rec.volatileTs.load();
        releaseWrLock(rec);
        handleObsoleteBlocking(rec, observed);
        releaseRdLockIfOwner(rec, ts);
        return res;
    }

    // Line 18 / Fig. 3 step d: persist.
    if (simproto::persistOnCriticalPath(cfg_.model)) {
        spinPersistLatency(cfg_.recordBytes);
        log_.append({key, value, ts});
        txn->localPersistDone.store(true, std::memory_order_release);
    } else {
        PersistJob job{key, value, ts, scope,
                       cfg_.model == PersistModel::REnf};
        enqueuePersist(std::move(job));
    }

    // Per-model gates and completion.
    switch (cfg_.model) {
      case PersistModel::Synch: {
        waitMask(txn->ackMask, "ACKs");
        AtomicRecord::raiseTs(rec.glbVolatileTs, ts);
        AtomicRecord::raiseTs(rec.glbDurableTs, ts);
        releaseRdLockIfOwner(rec, ts);
        Message val;
        val.type = MsgType::VAL;
        val.key = key;
        val.tsWr = ts;
        val.sizeBytes = net::controlMsgBytes;
        broadcastToLive(val);
        unregisterTxn(key, ts);
        break;
      }
      case PersistModel::Strict: {
        waitMask(txn->ackCMask, "ACK_Cs");
        AtomicRecord::raiseTs(rec.glbVolatileTs, ts);
        releaseRdLockIfOwner(rec, ts);
        Message valc;
        valc.type = MsgType::VAL_C;
        valc.key = key;
        valc.tsWr = ts;
        valc.sizeBytes = net::controlMsgBytes;
        broadcastToLive(valc);
        waitMask(txn->ackPMask, "ACK_Ps");
        AtomicRecord::raiseTs(rec.glbDurableTs, ts);
        Message valp = valc;
        valp.type = MsgType::VAL_P;
        broadcastToLive(valp);
        unregisterTxn(key, ts);
        break;
      }
      case PersistModel::REnf: {
        waitMask(txn->ackCMask, "ACK_Cs");
        AtomicRecord::raiseTs(rec.glbVolatileTs, ts);
        // RDLock stays held; the tail (VALs + unlock) runs when all
        // ACK_Ps and the local background persist are in.
        maybeFinalizeRenf(key, ts, txn);
        break;
      }
      case PersistModel::Event:
      case PersistModel::Scope: {
        waitMask(txn->ackCMask, "ACK_Cs");
        AtomicRecord::raiseTs(rec.glbVolatileTs, ts);
        releaseRdLockIfOwner(rec, ts);
        Message val;
        val.type = valCType(cfg_.model);
        val.key = key;
        val.tsWr = ts;
        val.scope = scope;
        val.sizeBytes = net::controlMsgBytes;
        broadcastToLive(val);
        unregisterTxn(key, ts);
        break;
      }
    }
    return res;
}

Value
ThreadedNode::read(Key key)
{
    MINOS_ASSERT(running_.load(), "node not started");
    AtomicRecord &rec = store_.getOrCreate(key);
    // §III-D: a read stalls only while the RDLock is taken.
    while (!Timestamp::unpack(rec.rdLockOwner.load(
                                  std::memory_order_acquire))
                .isNone())
        std::this_thread::yield();
    return rec.value.load(std::memory_order_acquire);
}

void
ThreadedNode::persistScope(ScopeId scope)
{
    if (!isScopeModel(cfg_.model))
        return;
    Message m;
    m.type = MsgType::PERSIST_SC;
    m.scope = scope;
    m.sizeBytes = net::controlMsgBytes;
    broadcastToLive(m);

    // Complete all local persists in the scope, then the marker itself.
    for (;;) {
        {
            std::lock_guard<std::mutex> guard(scopeMutex_);
            if (scopeUnpersisted_[scope] == 0)
                break;
        }
        std::this_thread::yield();
    }
    spinPersistLatency(net::controlMsgBytes);

    // Spin for all [ACK_P]sc with failure detection.
    auto deadline = Clock::now() + cfg_.ackTimeout;
    for (;;) {
        std::uint64_t acked;
        {
            std::lock_guard<std::mutex> guard(scopeMutex_);
            acked = scopeAckMask_[scope];
        }
        std::uint64_t required = followerMask();
        if ((acked & required) == required)
            break;
        if (Clock::now() > deadline) {
            std::uint64_t missing = required & ~acked;
            for (int n = 0; n < cfg_.numNodes; ++n) {
                if (missing & nodeBit(static_cast<NodeId>(n)))
                    declareFailed(static_cast<NodeId>(n));
            }
            deadline = Clock::now() + cfg_.ackTimeout;
        }
        std::this_thread::yield();
    }

    Message val;
    val.type = MsgType::VAL_P_SC;
    val.scope = scope;
    val.sizeBytes = net::controlMsgBytes;
    broadcastToLive(val);
    std::lock_guard<std::mutex> guard(scopeMutex_);
    scopeAckMask_.erase(scope);
}

// ---------------------------------------------------------------------
// RPC loop and handlers (Follower algorithms)
// ---------------------------------------------------------------------

void
ThreadedNode::rpcLoop()
{
    while (running_.load(std::memory_order_acquire)) {
        bool worked = false;
        if (auto env = cluster_.fabric().poll(id_)) {
            handleEnvelope(std::move(*env));
            worked = true;
        }
        processDeferred();
        if (!worked)
            std::this_thread::yield();
    }
}

void
ThreadedNode::handleEnvelope(runtime::Envelope env)
{
    if (auto *ctrl = std::get_if<CtrlMsg>(&env)) {
        onCtrl(*ctrl);
        return;
    }
    const Message &msg = std::get<Message>(env);
    switch (msg.type) {
      case MsgType::INV:
      case MsgType::INV_SC:
        onInv(msg);
        break;
      case MsgType::ACK:
      case MsgType::ACK_C:
      case MsgType::ACK_P:
      case MsgType::ACK_C_SC:
      case MsgType::ACK_P_SC:
        onAck(msg);
        break;
      case MsgType::VAL:
      case MsgType::VAL_C:
      case MsgType::VAL_P:
      case MsgType::VAL_C_SC:
      case MsgType::VAL_P_SC:
        onVal(msg);
        break;
      case MsgType::PERSIST_SC:
        onPersistSc(msg);
        break;
    }
}

void
ThreadedNode::onInv(const Message &msg)
{
    AtomicRecord &rec = store_.getOrCreate(msg.key);

    // Lines 27-30: obsolete INV -> park the spin as a deferred
    // continuation (the rpc loop must not block on it).
    if (obsolete(rec, msg.tsWr)) {
        obsoleteInvs_.fetch_add(1, std::memory_order_relaxed);
        Deferred d{msg, rec.volatileTs.load(), 0, Clock::now()};
        std::lock_guard<std::mutex> guard(deferredMutex_);
        deferred_.push_back(std::move(d));
        return;
    }

    // Lines 31-33.
    snatchRdLock(rec, msg.tsWr);
    acquireWrLock(rec);
    if (!obsolete(rec, msg.tsWr)) {
        rec.value.store(msg.value, std::memory_order_release);
        AtomicRecord::raiseTs(rec.volatileTs, msg.tsWr);
        releaseWrLock(rec);
    } else {
        obsoleteInvs_.fetch_add(1, std::memory_order_relaxed);
        std::uint64_t observed = rec.volatileTs.load();
        releaseWrLock(rec);
        Deferred d{msg, observed, 0, Clock::now()};
        std::lock_guard<std::mutex> guard(deferredMutex_);
        deferred_.push_back(std::move(d));
        return;
    }

    // Lines 39-40 / Fig. 3 follower deltas.
    switch (cfg_.model) {
      case PersistModel::Synch:
        spinPersistLatency(cfg_.recordBytes);
        log_.append({msg.key, msg.value, msg.tsWr});
        respond(msg, MsgType::ACK);
        break;
      case PersistModel::Strict:
      case PersistModel::REnf:
        respond(msg, MsgType::ACK_C);
        spinPersistLatency(cfg_.recordBytes);
        log_.append({msg.key, msg.value, msg.tsWr});
        respond(msg, MsgType::ACK_P);
        break;
      case PersistModel::Event:
      case PersistModel::Scope:
        respond(msg, ackCType(cfg_.model));
        enqueuePersist(
            PersistJob{msg.key, msg.value, msg.tsWr, msg.scope, false});
        break;
    }
}

void
ThreadedNode::onAck(const Message &msg)
{
    if (msg.type == MsgType::ACK_P_SC) {
        std::lock_guard<std::mutex> guard(scopeMutex_);
        scopeAckMask_[msg.scope] |= nodeBit(msg.src);
        return;
    }
    TxnPtr txn = findTxn(msg.key, msg.tsWr);
    if (!txn)
        return; // stray ACK for a finished transaction
    std::uint64_t bit = nodeBit(msg.src);
    switch (msg.type) {
      case MsgType::ACK:
        txn->ackMask.fetch_or(bit, std::memory_order_acq_rel);
        break;
      case MsgType::ACK_C:
      case MsgType::ACK_C_SC:
        txn->ackCMask.fetch_or(bit, std::memory_order_acq_rel);
        maybeFinalizeRenf(msg.key, msg.tsWr, txn);
        break;
      case MsgType::ACK_P:
        txn->ackPMask.fetch_or(bit, std::memory_order_acq_rel);
        maybeFinalizeRenf(msg.key, msg.tsWr, txn);
        break;
      default:
        break;
    }
}

void
ThreadedNode::onVal(const Message &msg)
{
    AtomicRecord &rec = store_.getOrCreate(msg.key);
    switch (msg.type) {
      case MsgType::VAL:
        AtomicRecord::raiseTs(rec.glbVolatileTs, msg.tsWr);
        AtomicRecord::raiseTs(rec.glbDurableTs, msg.tsWr);
        releaseRdLockIfOwner(rec, msg.tsWr);
        break;
      case MsgType::VAL_C:
      case MsgType::VAL_C_SC:
        AtomicRecord::raiseTs(rec.glbVolatileTs, msg.tsWr);
        releaseRdLockIfOwner(rec, msg.tsWr);
        break;
      case MsgType::VAL_P:
        AtomicRecord::raiseTs(rec.glbDurableTs, msg.tsWr);
        break;
      case MsgType::VAL_P_SC:
        break; // terminates the [PERSIST]sc at the follower
      default:
        break;
    }
}

void
ThreadedNode::onPersistSc(const Message &msg)
{
    // Complete persisting all WRs inside the scope (the persister thread
    // drains them independently, so this bounded wait cannot deadlock),
    // persist the marker, acknowledge.
    for (;;) {
        {
            std::lock_guard<std::mutex> guard(scopeMutex_);
            if (scopeUnpersisted_[msg.scope] == 0)
                break;
        }
        std::this_thread::yield();
    }
    spinPersistLatency(net::controlMsgBytes);
    respond(msg, MsgType::ACK_P_SC);
}

void
ThreadedNode::processDeferred()
{
    std::vector<Deferred> work;
    {
        std::lock_guard<std::mutex> guard(deferredMutex_);
        if (deferred_.empty())
            return;
        work.swap(deferred_);
    }
    std::vector<Deferred> keep;
    for (auto &d : work) {
        if (!advanceDeferred(d))
            keep.push_back(std::move(d));
    }
    if (!keep.empty()) {
        std::lock_guard<std::mutex> guard(deferredMutex_);
        for (auto &d : keep)
            deferred_.push_back(std::move(d));
    }
}

bool
ThreadedNode::advanceDeferred(Deferred &d)
{
    AtomicRecord &rec = store_.getOrCreate(d.req.key);
    const bool split = usesSplitAcks(cfg_.model);
    const bool tracks = tracksPersistPerWrite(cfg_.model);

    if (d.stage == 0) {
        // ConsistencySpin condition.
        if (rec.glbVolatileTs.load(std::memory_order_acquire) <
            d.observedPack)
            return false;
        if (split) {
            respond(d.req, ackCType(cfg_.model));
            if (!tracks) {
                // Event/Scope: done after the consistency ACK.
                releaseRdLockIfOwner(rec, d.req.tsWr);
                return true;
            }
            d.stage = 1;
            return false;
        }
        d.stage = 1; // Synch: also needs the PersistencySpin
        return false;
    }

    // PersistencySpin condition.
    if (rec.glbDurableTs.load(std::memory_order_acquire) <
        d.observedPack)
        return false;
    respond(d.req, split ? MsgType::ACK_P : MsgType::ACK);
    // We may be a stale RDLock owner (see §III-A discussion); release.
    releaseRdLockIfOwner(rec, d.req.tsWr);
    return true;
}

// ---------------------------------------------------------------------
// Persister
// ---------------------------------------------------------------------

void
ThreadedNode::enqueuePersist(PersistJob job)
{
    if (isScopeModel(cfg_.model)) {
        std::lock_guard<std::mutex> guard(scopeMutex_);
        ++scopeUnpersisted_[job.scope];
    }
    std::lock_guard<std::mutex> guard(persistMutex_);
    persistQueue_.push_back(std::move(job));
}

void
ThreadedNode::persisterLoop()
{
    while (running_.load(std::memory_order_acquire)) {
        std::vector<PersistJob> batch;
        {
            std::lock_guard<std::mutex> guard(persistMutex_);
            batch.swap(persistQueue_);
        }
        if (batch.empty()) {
            std::this_thread::yield();
            continue;
        }
        for (auto &job : batch) {
            spinPersistLatency(cfg_.recordBytes);
            log_.append({job.key, job.value, job.ts});
            if (isScopeModel(cfg_.model)) {
                std::lock_guard<std::mutex> guard(scopeMutex_);
                --scopeUnpersisted_[job.scope];
            }
            if (job.renfCoordinator) {
                if (TxnPtr txn = findTxn(job.key, job.ts)) {
                    txn->localPersistDone.store(
                        true, std::memory_order_release);
                    maybeFinalizeRenf(job.key, job.ts, txn);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Control plane (failure detection & recovery, §III-E)
// ---------------------------------------------------------------------

void
ThreadedNode::onCtrl(const CtrlMsg &msg)
{
    switch (msg.type) {
      case CtrlType::Fail: {
        live_.fetch_and(~nodeBit(msg.subject),
                        std::memory_order_acq_rel);
        // REnf tails may now be unblocked (one fewer required ACK_P).
        if (cfg_.model == PersistModel::REnf) {
            std::vector<TxnPtr> snapshot;
            {
                std::lock_guard<std::mutex> guard(txnMutex_);
                for (auto &[k, txn] : txns_)
                    snapshot.push_back(txn);
            }
            for (auto &txn : snapshot)
                maybeFinalizeRenf(txn->key, txn->ts, txn);
        }
        break;
      }
      case CtrlType::JoinReq: {
        // We are the designated node: ship the committed log and
        // announce the rejoin.
        CtrlMsg ship;
        ship.type = CtrlType::LogShip;
        ship.src = id_;
        ship.dst = msg.subject;
        ship.subject = msg.subject;
        ship.entries = log_.exportSince(0);
        ship.liveMask = live_.load() | nodeBit(msg.subject);
        cluster_.fabric().send(ship);
        live_.fetch_or(nodeBit(msg.subject), std::memory_order_acq_rel);
        for (int d = 0; d < cfg_.numNodes; ++d) {
            if (d == id_ || d == msg.subject)
                continue;
            CtrlMsg joined;
            joined.type = CtrlType::Joined;
            joined.src = id_;
            joined.dst = static_cast<NodeId>(d);
            joined.subject = msg.subject;
            cluster_.fabric().send(joined);
        }
        break;
      }
      case CtrlType::Joined:
        live_.fetch_or(nodeBit(msg.subject), std::memory_order_acq_rel);
        break;
      case CtrlType::LogShip: {
        // Replay the shipped updates into persistent and volatile state
        // (obsolete entries are filtered by the timestamp checks).
        for (const auto &e : msg.entries) {
            log_.append(e);
            AtomicRecord &rec = store_.getOrCreate(e.key);
            std::uint64_t pack = e.ts.pack();
            if (rec.volatileTs.load(std::memory_order_acquire) < pack) {
                rec.value.store(e.value, std::memory_order_release);
                AtomicRecord::raiseTs(rec.volatileTs, e.ts);
            }
            AtomicRecord::raiseTs(rec.glbVolatileTs, e.ts);
            AtomicRecord::raiseTs(rec.glbDurableTs, e.ts);
        }
        live_.store(msg.liveMask | nodeBit(id_),
                    std::memory_order_release);
        break;
      }
    }
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

const AtomicRecord *
ThreadedNode::record(Key key) const
{
    return store_.find(key);
}

nvm::DurableDb
ThreadedNode::durableDb() const
{
    nvm::DurableDb db;
    log_.applyTo(db);
    return db;
}

// ---------------------------------------------------------------------
// ThreadedCluster
// ---------------------------------------------------------------------

ThreadedCluster::ThreadedCluster(const ThreadedConfig &cfg)
    : cfg_(cfg), fabric_(cfg.numNodes, cfg.wireLatency)
{
    MINOS_ASSERT(cfg_.numNodes >= 2 && cfg_.numNodes <= 64,
                 "threaded cluster supports 2..64 nodes");
    nodes_.reserve(static_cast<std::size_t>(cfg_.numNodes));
    for (int i = 0; i < cfg_.numNodes; ++i)
        nodes_.push_back(std::make_unique<ThreadedNode>(
            *this, cfg_, static_cast<NodeId>(i)));
    for (auto &n : nodes_)
        n->start();
}

ThreadedCluster::~ThreadedCluster()
{
    for (auto &n : nodes_)
        n->stop();
}

ThreadedNode &
ThreadedCluster::node(NodeId id)
{
    MINOS_ASSERT(id >= 0 && id < cfg_.numNodes, "bad node id ", id);
    return *nodes_[static_cast<std::size_t>(id)];
}

void
ThreadedCluster::failNode(NodeId id)
{
    fabric_.setLinkUp(id, false);
}

void
ThreadedCluster::healAndRejoin(NodeId id)
{
    fabric_.setLinkUp(id, true);
    // Ask the designated (lowest-id reachable) node to ship its log.
    NodeId designated = -1;
    for (int n = 0; n < cfg_.numNodes; ++n) {
        if (n != id && fabric_.linkUp(static_cast<NodeId>(n))) {
            designated = static_cast<NodeId>(n);
            break;
        }
    }
    MINOS_ASSERT(designated >= 0, "no live node to rejoin through");
    CtrlMsg join;
    join.type = CtrlType::JoinReq;
    join.src = id;
    join.dst = designated;
    join.subject = id;
    fabric_.send(join);
}

} // namespace minos::proto
