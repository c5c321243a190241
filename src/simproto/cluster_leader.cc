#include "cluster_leader.hh"

namespace minos::simproto {

using kv::Key;
using kv::NodeId;
using kv::Value;
using net::ScopeId;

ClusterLeader::ClusterLeader(sim::Simulator &sim,
                             const ClusterConfig &cfg,
                             PersistModel model, NodeId leader)
    : ClusterB(sim, cfg, model), leader_(leader)
{
    MINOS_ASSERT(leader >= 0 && leader < cfg.numNodes,
                 "bad leader id ", leader);
    paths_.reserve(static_cast<std::size_t>(cfg.numNodes));
    for (int i = 0; i < cfg.numNodes; ++i)
        paths_.push_back(std::make_unique<ForwardPath>(sim, cfg));
}

sim::Task<OpStats>
ClusterLeader::clientWrite(NodeId node_id, Key key, Value value,
                           ScopeId scope)
{
    if (node_id == leader_)
        co_return co_await node(leader_).clientWrite(key, value, scope);

    // Forward the write request (carrying the record) to the leader...
    Tick t0 = sim_.now();
    auto &path = *paths_[static_cast<std::size_t>(node_id)];
    Tick at_leader = path.toLeader.transferFrom(
        sim_.now(), cfg_.recordBytes + net::controlMsgBytes);
    co_await sim::delay(at_leader - sim_.now());

    // ...the leader coordinates the full protocol...
    OpStats st = co_await node(leader_).clientWrite(key, value, scope);

    // ...and the response travels back to the origin node.
    Tick back = path.fromLeader.transferFrom(sim_.now(),
                                             net::controlMsgBytes);
    co_await sim::delay(back - sim_.now());

    st.latencyNs = sim_.now() - t0;
    st.compNs = static_cast<double>(st.latencyNs) - st.commNs;
    co_return st;
}

sim::Task<OpStats>
ClusterLeader::persistScope(NodeId node_id, ScopeId scope)
{
    if (node_id == leader_)
        co_return co_await node(leader_).persistScope(scope);
    Tick t0 = sim_.now();
    auto &path = *paths_[static_cast<std::size_t>(node_id)];
    Tick at_leader = path.toLeader.transferFrom(sim_.now(),
                                                net::controlMsgBytes);
    co_await sim::delay(at_leader - sim_.now());
    OpStats st = co_await node(leader_).persistScope(scope);
    Tick back = path.fromLeader.transferFrom(sim_.now(),
                                             net::controlMsgBytes);
    co_await sim::delay(back - sim_.now());
    st.latencyNs = sim_.now() - t0;
    co_return st;
}

} // namespace minos::simproto
