#include "replica_store.hh"

#include <algorithm>

#include "common/logging.hh"

namespace minos::simproto {

kv::Timestamp
ReplicaStore::makeWriteTs(kv::Key key, const kv::Record &rec,
                          kv::NodeId node)
{
    // Paper: version = coordinator's volatileTS version + 1. Concurrent
    // local writers would collide on that rule alone, so the guard keeps
    // locally issued TS_WR unique; cross-node ties are broken by node_id
    // as usual. A key without an entry has nothing issued past its
    // record, so the paper's rule alone holds for it.
    auto it = findGuard(key);
    if (it == nextLocalVersion_.end())
        it = nextLocalVersion_.emplace(nextLocalVersion_.end(), key, 0);
    std::int64_t ver =
        std::max<std::int64_t>(rec.volatileTs.version + 1, it->second);
    // The 24-bit version field must not wrap silently.
    MINOS_ASSERT(ver <= kv::Timestamp::maxVersion,
                 "TS_WR version overflow on key ", key);
    it->second = ver + 1;
    return kv::Timestamp{ver, node};
}

} // namespace minos::simproto
