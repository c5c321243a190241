#include "tnode.hh"

#include <algorithm>

#include "common/logging.hh"
#include "nvm/model.hh"

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
using simproto::ackOf;
using simproto::CoordinatorGate;
using simproto::CoordinatorStep;
using simproto::FollowerStep;
using simproto::invType;
using simproto::isScopeModel;

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// ThreadedNode lifecycle
// ---------------------------------------------------------------------

ThreadedNode::ThreadedNode(ThreadedCluster &cluster,
                           const ThreadedConfig &cfg, NodeId id)
    : cluster_(cluster), cfg_(cfg), id_(id),
      appliedSteps_(simproto::appliedSchedule(cfg.model, false, false)),
      obsoleteSteps_(simproto::obsoleteSchedule(cfg.model)),
      coordinatorSteps_(simproto::coordinatorSchedule(cfg.model, false)),
      store_(cfg.numRecords),
      durable_(cfg.numRecords),
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

AtomicRecord &
ThreadedNode::at(Key key)
{
    MINOS_ASSERT(key < store_.size(), "key out of range: ", key);
    return store_[key];
}

Timestamp
ThreadedNode::makeWriteTs(Key key, AtomicRecord &rec)
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
    // The 24-bit version field must not wrap silently.
    MINOS_ASSERT(ver <= Timestamp::maxVersion,
                 "TS_WR version overflow on key ", key);
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
    const Tick lat = nvm::persistLatency(cfg_.persistNsPerKb, bytes);
    auto until = Clock::now() + std::chrono::nanoseconds(lat);
    while (Clock::now() < until) {
        // Emulated NVM write (paper Table II): busy-wait the medium's
        // latency, like the paper's emulation on CloudLab.
    }
}

void
ThreadedNode::persist(Key key, Value value, const Timestamp &ts)
{
    spinPersistLatency(cfg_.recordBytes);
    std::lock_guard<std::mutex> guard(durableMutex_);
    durable_[key].offer(value, ts);
}

void
ThreadedNode::flushScope(ScopeId scope)
{
    for (;;) {
        {
            std::lock_guard<std::mutex> guard(scopeMutex_);
            if (!scopeUnpersisted_.contains(scope))
                break;
        }
        std::this_thread::yield();
    }
    spinPersistLatency(net::controlMsgBytes);
}

bool
ThreadedNode::stepReady(const AtomicRecord &rec, FollowerStep s,
                        std::uint64_t observed_pack)
{
    // The spins are real spins on the coherent glb timestamps.
    if (s == FollowerStep::AwaitGlbVolatile)
        return rec.glbVolatileTs.load(std::memory_order_acquire) >=
               observed_pack;
    if (s == FollowerStep::AwaitGlbDurable)
        return rec.glbDurableTs.load(std::memory_order_acquire) >=
               observed_pack;
    return true;
}

void
ThreadedNode::handleObsoleteBlocking(const AtomicRecord &rec,
                                     std::uint64_t observed_pack)
{
    for (FollowerStep s : obsoleteSteps_) {
        while (!stepReady(rec, s, observed_pack))
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
ThreadedNode::registerTxn(const Message &m)
{
    auto txn = std::make_shared<TxnState>();
    txn->key = m.key;
    txn->ts = m.tsWr;
    txn->scope = m.scope;
    std::lock_guard<std::mutex> guard(txnMutex_);
    auto [it, inserted] = txns_.emplace(net::txnOf(m), txn);
    MINOS_ASSERT(inserted, "duplicate threaded transaction");
    return txn;
}

ThreadedNode::TxnPtr
ThreadedNode::findTxn(const kv::WriteId &id)
{
    std::lock_guard<std::mutex> guard(txnMutex_);
    auto it = txns_.find(id);
    return it == txns_.end() ? nullptr : it->second;
}

void
ThreadedNode::unregisterTxn(const kv::WriteId &id)
{
    std::lock_guard<std::mutex> guard(txnMutex_);
    txns_.erase(id);
}

template <typename Acked>
void
ThreadedNode::waitAcks(const char *what, Acked acked)
{
    auto deadline = Clock::now() + cfg_.ackTimeout;
    for (;;) {
        std::uint64_t missing = followerMask() & ~acked();
        if (!missing)
            return;
        if (Clock::now() > deadline) {
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
ThreadedNode::runStep(CoordinatorStep s, AtomicRecord &rec,
                      const TxnState &txn)
{
    if (s == CoordinatorStep::RaiseGlbVolatile)
        AtomicRecord::raiseTs(rec.glbVolatileTs, txn.ts);
    else if (s == CoordinatorStep::RaiseGlbDurable)
        AtomicRecord::raiseTs(rec.glbDurableTs, txn.ts);
    else if (s == CoordinatorStep::ReleaseRdLock)
        releaseRdLockIfOwner(rec, txn.ts);
    else if (s == CoordinatorStep::SendVal || s == CoordinatorStep::SendValP)
        broadcastToLive(net::makeVal(simproto::valOf(cfg_.model, s), id_,
                                     txn.key, txn.ts, txn.scope));
}

void
ThreadedNode::finishTail(const TxnPtr &txn)
{
    // No row has more than one segment after Return, so the tail runs
    // whole, once, when the last step's gate holds. That gate is
    // cumulative: every ACK_C is in too, so none is lost as stray once
    // the txn is retired. The loads are sequentially consistent, like
    // tail's: a thread that publishes an ACK or the local persist and
    // then reads tail, and write() publishing tail and then reading
    // these, cannot both miss.
    const CoordinatorStep *s = txn->tail.load();
    if (!s)
        return;
    const CoordinatorGate g =
        coordinatorSteps_.gateOf(coordinatorSteps_.end() - 1);
    const std::uint64_t acked = (g.acksC ? txn->ackCMask.load() : ~0ull) &
                                (g.acksP ? txn->ackPMask.load() : ~0ull);
    if ((followerMask() & ~acked) ||
        (g.localPersist && !txn->localPersisted.load()) ||
        !txn->tail.compare_exchange_strong(s, nullptr))
        return;
    AtomicRecord &rec = at(txn->key);
    for (; s != coordinatorSteps_.end(); ++s)
        runStep(*s, rec, *txn);
    unregisterTxn(kv::WriteId::of(txn->key, txn->ts));
}

// ---------------------------------------------------------------------
// Client API (Coordinator algorithms, Fig. 2 / Fig. 3)
// ---------------------------------------------------------------------

WriteResult
ThreadedNode::write(Key key, Value value, ScopeId scope)
{
    MINOS_ASSERT(running_.load(), "node not started");
    AtomicRecord &rec = at(key);
    Timestamp ts = makeWriteTs(key, rec);
    WriteResult res{ts, false};

    // Line 5: early obsoleteness check.
    if (obsolete(rec, ts)) {
        res.obsolete = true;
        handleObsoleteBlocking(rec, rec.volatileTs.load());
        return res;
    }

    // Lines 8-10: snatch RDLock, grab WRLock, final check under it.
    snatchRdLock(rec, ts);
    acquireWrLock(rec);
    if (obsolete(rec, ts)) {
        res.obsolete = true;
        std::uint64_t observed = rec.volatileTs.load();
        releaseWrLock(rec);
        handleObsoleteBlocking(rec, observed);
        releaseRdLockIfOwner(rec, ts);
        return res;
    }

    // Lines 11-13: INVs to the followers, LLC update, release WRLock.
    const Message inv = net::makeInv(invType(cfg_.model), id_, key, value,
                                     ts, scope, cfg_.recordBytes);
    TxnPtr txn = registerTxn(inv);
    broadcastToLive(inv);
    rec.value.store(value, std::memory_order_release);
    AtomicRecord::raiseTs(rec.volatileTs, ts);
    releaseWrLock(rec);

    // Lines 18-22 / Fig. 3 steps d-f: the model's coordinator schedule
    // up to the client's answer; the rpc threads finish the rest.
    const CoordinatorStep *s = coordinatorSteps_.begin();
    for (; *s != CoordinatorStep::Return; ++s) {
        if (*s == CoordinatorStep::Persist) {
            persist(key, value, ts);
            txn->localPersisted.store(true);
        } else if (*s == CoordinatorStep::PersistLater) {
            enqueuePersist(PersistJob{key, value, ts, scope,
                                      coordinatorSteps_.awaitsLocalPersist()});
        } else if (simproto::CoordinatorSchedule::isAwait(*s)) {
            const bool acks_p = *s == CoordinatorStep::AwaitAcksP;
            const auto &mask = acks_p ? txn->ackPMask : txn->ackCMask;
            waitAcks(acks_p ? "ACK_Ps" : "consistency ACKs",
                     [&] { return mask.load(std::memory_order_acquire); });
            while (coordinatorSteps_.gateOf(s).localPersist &&
                   !txn->localPersisted.load())
                std::this_thread::yield();
        } else {
            runStep(*s, rec, *txn);
        }
    }
    if (s + 1 == coordinatorSteps_.end()) {
        unregisterTxn(net::txnOf(inv));
    } else {
        txn->tail.store(s + 1);
        finishTail(txn);
    }
    return res;
}

Value
ThreadedNode::read(Key key)
{
    MINOS_ASSERT(running_.load(), "node not started");
    const AtomicRecord &rec = at(key);
    // §III-D: a read stalls only while the RDLock is taken. The value is
    // checked by a second look at the lock: every writer snatches the
    // RDLock (acq_rel CAS) before it stores its value (release), so a
    // read that loads a write's value also sees that write's snatch,
    // or the release of a validated lock, and never returns the value
    // of a write still in flight.
    for (;;) {
        if (rec.loadRdLockOwner().isNone()) {
            const Value v = rec.value.load(std::memory_order_acquire);
            if (rec.loadRdLockOwner().isNone())
                return v;
        }
        std::this_thread::yield();
    }
}

void
ThreadedNode::persistScope(ScopeId scope)
{
    if (!isScopeModel(cfg_.model))
        return;
    const Message m = net::makePersistSc(id_, scope);
    TxnPtr txn = registerTxn(m);
    broadcastToLive(m);

    // Flush the local scope, gather every [ACK_P]sc, then [VAL_P]sc.
    flushScope(scope);
    waitAcks("[ACK_P]sc", [&] {
        return txn->ackPMask.load(std::memory_order_acquire);
    });
    broadcastToLive(
        net::makeVal(MsgType::VAL_P_SC, id_, 0, Timestamp::none(), scope));
    unregisterTxn(kv::WriteId::ofScope(scope));
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
    switch (net::familyOf(msg.type)) {
      case net::MsgFamily::Inv:
        onInv(msg);
        break;
      case net::MsgFamily::Ack:
        onAck(msg);
        break;
      case net::MsgFamily::Val:
        onVal(msg);
        break;
      case net::MsgFamily::PersistSc:
        onPersistSc(msg);
        break;
    }
}

void
ThreadedNode::onInv(const Message &msg)
{
    AtomicRecord &rec = at(msg.key);

    // Lines 27-34: an INV already obsolete is cut at once; otherwise
    // snatch the RDLock, grab the WRLock and re-check under it.
    std::uint64_t observed = rec.volatileTs.load();
    bool cut = observed > msg.tsWr.pack();
    if (!cut) {
        snatchRdLock(rec, msg.tsWr);
        acquireWrLock(rec);
        observed = rec.volatileTs.load();
        cut = observed > msg.tsWr.pack();
        if (!cut) {
            // Lines 35-37: update the LLC copy.
            rec.value.store(msg.value, std::memory_order_release);
            AtomicRecord::raiseTs(rec.volatileTs, msg.tsWr);
        }
        releaseWrLock(rec);
    }
    if (cut) {
        // Park the spins and ACKs as a continuation: the rpc loop must
        // not block on them.
        obsoleteInvs_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> guard(deferredMutex_);
        deferred_.push_back(Deferred{msg, observed});
        return;
    }

    // Lines 39-40 / Fig. 3 follower deltas: persist + acknowledge.
    for (FollowerStep s : appliedSteps_) {
        switch (s) {
          case FollowerStep::AckC:
          case FollowerStep::AckP:
            respond(msg, ackOf(cfg_.model, s));
            break;
          case FollowerStep::Persist:
            persist(msg.key, msg.value, msg.tsWr);
            break;
          case FollowerStep::PersistLater:
            enqueuePersist(
                PersistJob{msg.key, msg.value, msg.tsWr, msg.scope});
            break;
          default:
            break;
        }
    }
}

void
ThreadedNode::onAck(const Message &msg)
{
    TxnPtr txn = findTxn(net::txnOf(msg));
    if (!txn)
        return; // stray ACK for a finished transaction
    // ACK_P or ACK_P_SC, or a consistency ACK (ACK, ACK_C, ACK_C_SC).
    auto &mask = msg.type == MsgType::ACK_P || msg.type == MsgType::ACK_P_SC
                     ? txn->ackPMask
                     : txn->ackCMask;
    mask.fetch_or(nodeBit(msg.src));
    finishTail(txn);
}

void
ThreadedNode::onVal(const Message &msg)
{
    AtomicRecord &rec = at(msg.key);
    const simproto::ValEffect fx = simproto::valEffect(msg.type);
    if (fx.raisesGlbVolatile)
        AtomicRecord::raiseTs(rec.glbVolatileTs, msg.tsWr);
    if (fx.raisesGlbDurable)
        AtomicRecord::raiseTs(rec.glbDurableTs, msg.tsWr);
    if (fx.releasesRdLock)
        releaseRdLockIfOwner(rec, msg.tsWr);
}

void
ThreadedNode::onPersistSc(const Message &msg)
{
    // The persister thread drains the scope's writes independently, so
    // this bounded wait cannot deadlock.
    flushScope(msg.scope);
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
    AtomicRecord &rec = at(d.req.key);
    for (; d.step < obsoleteSteps_.size; ++d.step) {
        FollowerStep s = obsoleteSteps_.steps[d.step];
        if (!stepReady(rec, s, d.observedPack))
            return false;
        if (s == FollowerStep::AckC || s == FollowerStep::AckP)
            respond(d.req, ackOf(cfg_.model, s));
    }
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
            persist(job.key, job.value, job.ts);
            if (isScopeModel(cfg_.model)) {
                std::lock_guard<std::mutex> guard(scopeMutex_);
                const auto it = scopeUnpersisted_.find(job.scope);
                if (--it->second == 0)
                    scopeUnpersisted_.erase(it);
            }
            if (job.awaited) {
                if (TxnPtr txn = findTxn(kv::WriteId::of(job.key, job.ts))) {
                    txn->localPersisted.store(true);
                    finishTail(txn);
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
        // Tails may now be unblocked (one fewer required ACK).
        std::vector<TxnPtr> snapshot;
        {
            std::lock_guard<std::mutex> guard(txnMutex_);
            for (auto &[k, txn] : txns_)
                snapshot.push_back(txn);
        }
        for (auto &txn : snapshot)
            finishTail(txn);
        break;
      }
      case CtrlType::JoinReq: {
        // We are the designated node: ship our durable state and
        // announce the rejoin.
        CtrlMsg ship;
        ship.type = CtrlType::LogShip;
        ship.src = id_;
        ship.dst = msg.subject;
        ship.subject = msg.subject;
        for (const auto &[key, rec] : durableDb())
            ship.entries.push_back({key, rec.value, rec.ts});
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
        // Apply the shipped updates to durable and volatile state
        // (obsolete entries are filtered by the timestamp checks).
        std::lock_guard<std::mutex> guard(durableMutex_);
        for (const auto &e : msg.entries) {
            AtomicRecord &rec = at(e.key);
            durable_[e.key].offer(e.value, e.ts);
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
    return key < store_.size() ? &store_[key] : nullptr;
}

nvm::DurableDb
ThreadedNode::durableDb() const
{
    nvm::DurableDb db;
    std::lock_guard<std::mutex> guard(durableMutex_);
    for (Key k = 0; k < durable_.size(); ++k)
        if (!durable_[k].ts.isNone())
            db[k] = durable_[k];
    return db;
}

std::size_t
ThreadedNode::scopesPersisting() const
{
    std::lock_guard<std::mutex> guard(scopeMutex_);
    return scopeUnpersisted_.size();
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
    // Ask the designated node among the other reachable ones to ship
    // its durable state.
    const NodeId designated = recovery::designatedNode(
        fabric_.upMask() & ~nodeBit(id), cfg_.numNodes);
    MINOS_ASSERT(designated >= 0, "no live node to rejoin through");
    CtrlMsg join;
    join.type = CtrlType::JoinReq;
    join.src = id;
    join.dst = designated;
    join.subject = id;
    fabric_.send(join);
}

} // namespace minos::proto
