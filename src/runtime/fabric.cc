#include "fabric.hh"

#include "common/logging.hh"

namespace minos::runtime {

kv::NodeId
envelopeDst(const Envelope &env)
{
    if (const auto *m = std::get_if<net::Message>(&env))
        return m->dst;
    return std::get<recovery::CtrlMsg>(env).dst;
}

kv::NodeId
envelopeSrc(const Envelope &env)
{
    if (const auto *m = std::get_if<net::Message>(&env))
        return m->src;
    return std::get<recovery::CtrlMsg>(env).src;
}

Fabric::Fabric(int nodes, std::chrono::nanoseconds wire_latency)
    : latency_(wire_latency)
{
    MINOS_ASSERT(nodes >= 1 && nodes <= 64, "fabric needs 1..64 nodes");
    up_.store(nodes == 64 ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << nodes) - 1);
    queues_.reserve(static_cast<std::size_t>(nodes));
    for (int i = 0; i < nodes; ++i)
        queues_.push_back(std::make_unique<Queue>());
}

void
Fabric::send(Envelope env)
{
    kv::NodeId src = envelopeSrc(env);
    kv::NodeId dst = envelopeDst(env);
    MINOS_ASSERT(dst >= 0 && dst < numNodes(), "bad destination ", dst);
    if (!linkUp(dst) || (src >= 0 && !linkUp(src))) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Timed item{Clock::now() + latency_, std::move(env)};
    Queue &q = *queues_[static_cast<std::size_t>(dst)];
    std::lock_guard<std::mutex> guard(q.mutex);
    q.items.push_back(std::move(item));
}

std::optional<Envelope>
Fabric::poll(kv::NodeId node)
{
    MINOS_ASSERT(node >= 0 && node < numNodes(), "bad node ", node);
    Queue &q = *queues_[static_cast<std::size_t>(node)];
    std::lock_guard<std::mutex> guard(q.mutex);
    if (q.items.empty() || q.items.front().due > Clock::now())
        return std::nullopt;
    Envelope env = std::move(q.items.front().env);
    q.items.pop_front();
    return env;
}

void
Fabric::setLinkUp(kv::NodeId node, bool up)
{
    MINOS_ASSERT(node >= 0 && node < numNodes(), "bad node ", node);
    if (up) {
        up_.fetch_or(recovery::nodeBit(node), std::memory_order_acq_rel);
    } else {
        up_.fetch_and(~recovery::nodeBit(node), std::memory_order_acq_rel);
        // Drop anything already queued for the node.
        Queue &q = *queues_[static_cast<std::size_t>(node)];
        std::lock_guard<std::mutex> guard(q.mutex);
        dropped_.fetch_add(q.items.size(), std::memory_order_relaxed);
        q.items.clear();
    }
}

bool
Fabric::linkUp(kv::NodeId node) const
{
    return recovery::isLive(up_.load(std::memory_order_acquire), node);
}

} // namespace minos::runtime
