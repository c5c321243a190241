/**
 * @file
 * Leader-based baseline cluster (paper §I/§II-A context).
 *
 * The DDP protocols are *leaderless*: any node coordinates writes. The
 * paper argues this "delivers higher performance and is scalable"
 * compared to leader-based systems, where all write requests must be
 * initiated by one leader node. This baseline makes that comparison
 * measurable: it runs the identical MINOS-B protocol engine, but every
 * write is forwarded over the network to a fixed leader, which acts as
 * the sole coordinator. Reads remain local (the RDLock/VAL machinery
 * keeps them linearizable exactly as in the leaderless design).
 *
 * Expected shape (see bench/leader_baseline): the leader's host cores
 * and links saturate at roughly one node's coordination capacity, so
 * cluster write throughput stays flat as nodes are added, while the
 * leaderless engine scales — and non-leader writes pay the extra
 * forwarding round trip.
 */

#ifndef MINOS_SIMPROTO_CLUSTER_LEADER_HH
#define MINOS_SIMPROTO_CLUSTER_LEADER_HH

#include <memory>
#include <vector>

#include "simproto/cluster_b.hh"

namespace minos::simproto {

/** Leader-based variant: all writes coordinated by a fixed leader. */
class ClusterLeader : public ClusterB
{
  public:
    ClusterLeader(sim::Simulator &sim, const ClusterConfig &cfg,
                  PersistModel model, kv::NodeId leader = 0);

    sim::Task<OpStats> clientWrite(kv::NodeId node, kv::Key key,
                                   kv::Value value,
                                   net::ScopeId scope) override;
    sim::Task<OpStats> persistScope(kv::NodeId node,
                                    net::ScopeId scope) override;

    kv::NodeId leader() const { return leader_; }

  private:
    /** Forwarding leg: origin host -> leader host (or back). */
    struct ForwardPath
    {
        ForwardPath(sim::Simulator &sim, const ClusterConfig &cfg)
            : toLeader(sim, 2 * cfg.pcieLatencyNs + cfg.netLatencyNs,
                       cfg.pcieBwBytesPerSec,
                       2 * cfg.pcieMsgOverheadNs),
              fromLeader(sim, 2 * cfg.pcieLatencyNs + cfg.netLatencyNs,
                         cfg.pcieBwBytesPerSec,
                         2 * cfg.pcieMsgOverheadNs)
        {
        }

        sim::Link toLeader;
        sim::Link fromLeader;
    };

    kv::NodeId leader_;
    std::vector<std::unique_ptr<ForwardPath>> paths_;
};

} // namespace minos::simproto

#endif // MINOS_SIMPROTO_CLUSTER_LEADER_HH
