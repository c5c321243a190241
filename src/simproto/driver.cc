#include "driver.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "obs/audit.hh"
#include "sim/condition.hh"

namespace minos::simproto {

ScopeIds::ScopeIds(kv::NodeId node) : node_(node)
{
    MINOS_ASSERT(node >= 0 && node < (1 << (32 - seqBits)),
                 "scope ids need a node id below 64, got ", node);
}

net::ScopeId
ScopeIds::next()
{
    if (seq_ == maxPerNode)
        MINOS_PANIC("node ", node_, " opened more than ", maxPerNode,
                    " scopes: its scope ids are exhausted");
    return static_cast<net::ScopeId>(
        (static_cast<std::uint64_t>(node_) << seqBits) | ++seq_);
}

namespace {

/** Shared run state mutated by the (single-threaded) sim workers. */
struct RunState
{
    RunResult result;
    Tick lastCompletion = 0;
};

sim::Process
worker(sim::Simulator *sim, DdpCluster *cluster, RunState *state,
       kv::NodeId node, ScopeIds *scopes, std::vector<workload::Op> ops,
       int scope_size, sim::WaitGroup *wg)
{
    const bool scoped = cluster->model() == PersistModel::Scope;
    net::ScopeId scope = scoped ? scopes->next() : 0;
    int writes_in_scope = 0;

    for (const auto &op : ops) {
        // Read-modify-write (YCSB F) is a read followed by a write to
        // the same key.
        if (op.type == workload::OpType::Read ||
            op.type == workload::OpType::ReadModifyWrite) {
            OpStats st = co_await cluster->clientRead(node, op.key);
            state->result.readLat.add(st.latencyNs);
            ++state->result.reads;
        }
        if (op.type == workload::OpType::Write ||
            op.type == workload::OpType::ReadModifyWrite) {
            OpStats st =
                co_await cluster->clientWrite(node, op.key, op.value,
                                              scope);
            state->result.writeLat.add(st.latencyNs);
            state->result.breakdown.add(st.commNs, st.compNs);
            ++state->result.writes;
            if (st.obsolete)
                ++state->result.obsoleteWrites;
            if (scoped && ++writes_in_scope >= scope_size) {
                OpStats ps = co_await cluster->persistScope(node, scope);
                state->result.persistLat.add(ps.latencyNs);
                scope = scopes->next();
                writes_in_scope = 0;
            }
        }
        state->lastCompletion =
            std::max(state->lastCompletion, sim->now());
    }
    // Close the trailing scope so its writes get persisted.
    if (scoped && writes_in_scope > 0) {
        OpStats ps = co_await cluster->persistScope(node, scope);
        state->result.persistLat.add(ps.latencyNs);
        state->lastCompletion =
            std::max(state->lastCompletion, sim->now());
    }
    wg->done();
}

} // namespace

RunResult
runWorkload(sim::Simulator &sim, DdpCluster &cluster,
            const DriverConfig &driver_cfg)
{
    RunState state;
    sim::WaitGroup wg(sim);

    int workers = driver_cfg.workersPerNode;
    if (workers <= 0)
        workers = cluster.config().hostCores;

    if (driver_cfg.keepSampleOrder) {
        state.result.writeLat.keepOrder();
        state.result.readLat.keepOrder();
        state.result.persistLat.keepOrder();
    }

    const auto per_node = driver_cfg.requestsPerNode;
    const auto n_workers = static_cast<std::uint64_t>(workers);
    std::vector<ScopeIds> scopes;
    for (int n = 0; n < cluster.numNodes(); ++n)
        scopes.emplace_back(static_cast<kv::NodeId>(n));
    for (int n = 0; n < cluster.numNodes(); ++n) {
        // Deal the node's stream round-robin to its workers as it is
        // generated.
        workload::YcsbGenerator gen(driver_cfg.ycsb,
                                    static_cast<std::uint32_t>(n));
        std::vector<std::vector<workload::Op>> shares(n_workers);
        for (std::uint64_t w = 0; w < n_workers; ++w)
            shares[w].reserve(per_node / n_workers +
                              (w < per_node % n_workers ? 1 : 0));
        for (std::uint64_t i = 0; i < per_node; ++i)
            shares[i % n_workers].push_back(gen.next());
        for (int w = 0; w < workers; ++w) {
            wg.add();
            sim.spawn(worker(&sim, &cluster, &state,
                             static_cast<kv::NodeId>(n), &scopes[n],
                             std::move(shares[static_cast<std::size_t>(
                                 w)]),
                             driver_cfg.scopeSize, &wg));
        }
    }

    sim.run();
    MINOS_ASSERT(wg.count() == 0,
                 "workload did not finish: ", wg.count(),
                 " workers still pending (protocol deadlock?)");
    // Quiescence: give the auditors their end-of-run pass (e.g. "every
    // applied write is durable everywhere by now").
    if (cluster.config().audit)
        cluster.config().audit->finish();
    state.result.duration = state.lastCompletion;
    state.result.eventCore = sim.counters();
    return state.result;
}

void
registerRunMetrics(obs::MetricsRegistry &reg, const std::string &prefix,
                   const RunResult &res)
{
    reg.counter(prefix + "writes", res.writes);
    reg.counter(prefix + "reads", res.reads);
    reg.counter(prefix + "obsolete_writes", res.obsoleteWrites);
    reg.gauge(prefix + "duration_ns", static_cast<double>(res.duration));
    reg.gauge(prefix + "write_tput_ops", res.writeThroughput());
    reg.gauge(prefix + "read_tput_ops", res.readThroughput());
    reg.gauge(prefix + "total_tput_ops", res.totalThroughput());
    if (!res.writeLat.empty())
        reg.histogram(prefix + "write_lat_ns", res.writeLat);
    if (!res.readLat.empty())
        reg.histogram(prefix + "read_lat_ns", res.readLat);
    if (!res.persistLat.empty())
        reg.histogram(prefix + "persist_lat_ns", res.persistLat);
    if (res.breakdown.count > 0) {
        reg.gauge(prefix + "write_comm_ns", res.breakdown.meanComm());
        reg.gauge(prefix + "write_comp_ns", res.breakdown.meanComp());
    }
    obs::registerEventCore(reg, prefix + "sim.", res.eventCore);
}

namespace {

sim::Process
microWorker(sim::Simulator *sim, DdpCluster *cluster,
            MicroserviceResult *result, const workload::FunctionSpec spec,
            kv::NodeId node, int worker_idx, ScopeIds *scopes,
            int invocations, std::uint64_t num_records, std::uint64_t seed,
            sim::WaitGroup *wg)
{
    Rng rng(seed * 0x2545F4914F6CDD1Dull + node * 131 + worker_idx);
    UniformKeys keys(num_records);
    std::uint64_t next_value =
        (static_cast<std::uint64_t>(node) << 40) |
        (static_cast<std::uint64_t>(worker_idx) << 32);
    const bool scoped = cluster->model() == PersistModel::Scope;

    for (int i = 0; i < invocations; ++i) {
        Tick t0 = sim->now();
        // Client -> service round trip(s) over the datacenter network.
        co_await sim::delay(spec.serviceRtts * spec.rttNs);
        auto ops = workload::invocationOps(spec, keys, rng, next_value);
        const net::ScopeId scope = scoped ? scopes->next() : 0;
        for (const auto &op : ops) {
            if (op.type == workload::OpType::Write)
                co_await cluster->clientWrite(node, op.key, op.value,
                                              scope);
            else
                co_await cluster->clientRead(node, op.key);
        }
        if (scoped)
            co_await cluster->persistScope(node, scope);
        result->e2eLat.add(sim->now() - t0);
    }
    wg->done();
}

} // namespace

MicroserviceResult
runMicroservice(sim::Simulator &sim, DdpCluster &cluster,
                const workload::FunctionSpec &spec,
                const MicroserviceConfig &mcfg)
{
    MicroserviceResult result;
    sim::WaitGroup wg(sim);
    std::vector<ScopeIds> scopes;
    for (int n = 0; n < cluster.numNodes(); ++n)
        scopes.emplace_back(static_cast<kv::NodeId>(n));
    for (int n = 0; n < cluster.numNodes(); ++n) {
        for (int w = 0; w < mcfg.workersPerNode; ++w) {
            wg.add();
            sim.spawn(microWorker(&sim, &cluster, &result, spec,
                                  static_cast<kv::NodeId>(n), w, &scopes[n],
                                  mcfg.invocationsPerNode,
                                  mcfg.numRecords, mcfg.seed, &wg));
        }
    }
    sim.run();
    MINOS_ASSERT(wg.count() == 0, "microservice run did not finish");
    if (cluster.config().audit)
        cluster.config().audit->finish();
    result.eventCore = sim.counters();
    return result;
}

} // namespace minos::simproto
