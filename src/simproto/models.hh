/**
 * @file
 * The DDP model taxonomy: Linearizable consistency combined with one of
 * five persistency models (paper §II-A).
 *
 * The helpers encode the per-model protocol differences of Fig. 3:
 * which ACK/VAL message types are exchanged, whether the NVM persist is
 * on the write critical path, and whether obsolete-write handling
 * requires the PersistencySpin. Every engine (MINOS-B, MINOS-O and the
 * threaded runtime) takes its message flavors and its write identity
 * from here.
 */

#ifndef MINOS_SIMPROTO_MODELS_HH
#define MINOS_SIMPROTO_MODELS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>

#include "kv/record.hh"
#include "net/message.hh"

namespace minos::simproto {

/** Persistency model combined with Linearizable consistency. */
enum class PersistModel : std::uint8_t
{
    Synch,  ///< persist with the volatile update, single ACK/VAL
    Strict, ///< split ACK_C/ACK_P and VAL_C/VAL_P, persist before return
    REnf,   ///< read-enforced: persisted by the time any replica is read
    Event,  ///< eventual: persist in the background, no persist messages
    Scope,  ///< eventual within a scope; [PERSIST]sc flushes the scope
};

/** All models, in the paper's presentation order. */
inline constexpr std::array<PersistModel, 5> allModels = {
    PersistModel::Synch, PersistModel::Strict, PersistModel::REnf,
    PersistModel::Event, PersistModel::Scope,
};

/** "<Lin, Synch>"-style display name. */
constexpr std::string_view
modelName(PersistModel m)
{
    switch (m) {
      case PersistModel::Synch: return "<Lin,Synch>";
      case PersistModel::Strict: return "<Lin,Strict>";
      case PersistModel::REnf: return "<Lin,REnf>";
      case PersistModel::Event: return "<Lin,Event>";
      case PersistModel::Scope: return "<Lin,Scope>";
    }
    return "<?>";
}

/** Short name without the consistency prefix. */
constexpr std::string_view
shortModelName(PersistModel m)
{
    switch (m) {
      case PersistModel::Synch: return "Synch";
      case PersistModel::Strict: return "Strict";
      case PersistModel::REnf: return "REnf";
      case PersistModel::Event: return "Event";
      case PersistModel::Scope: return "Scope";
    }
    return "?";
}

/**
 * True if the model separates consistency and persistency
 * acknowledgements (ACK_C / ACK_P). Synch uses a single combined ACK.
 */
constexpr bool
usesSplitAcks(PersistModel m)
{
    return m != PersistModel::Synch;
}

/**
 * True if the NVM persist sits on the write critical path (Fig. 3:
 * "For the rest of the models, persisting the update to NVM is performed
 * outside of the critical path").
 */
constexpr bool
persistOnCriticalPath(PersistModel m)
{
    return m == PersistModel::Synch || m == PersistModel::Strict;
}

/**
 * True if persistency is tracked with ACK_P/VAL_P messages at write
 * granularity. Event never tracks; Scope tracks only at [PERSIST]sc.
 */
constexpr bool
tracksPersistPerWrite(PersistModel m)
{
    return m == PersistModel::Synch || m == PersistModel::Strict ||
           m == PersistModel::REnf;
}

/**
 * True if handleObsolete() must run the PersistencySpin (Fig. 3: Event
 * and Scope skip it; accesses need not stall for outstanding persists).
 */
constexpr bool
needsPersistencySpin(PersistModel m)
{
    return tracksPersistPerWrite(m);
}

/** True for the <Lin, Scope> model (scoped message variants). */
constexpr bool
isScopeModel(PersistModel m)
{
    return m == PersistModel::Scope;
}

/** Per-model INV flavor. */
constexpr net::MsgType
invType(PersistModel m)
{
    return isScopeModel(m) ? net::MsgType::INV_SC : net::MsgType::INV;
}

/** Per-model gating consistency ACK (the combined ACK for Synch). */
constexpr net::MsgType
ackCType(PersistModel m)
{
    if (m == PersistModel::Synch)
        return net::MsgType::ACK;
    return isScopeModel(m) ? net::MsgType::ACK_C_SC : net::MsgType::ACK_C;
}

/** Per-model consistency VAL (the combined VAL for Synch and REnf). */
constexpr net::MsgType
valCType(PersistModel m)
{
    switch (m) {
      case PersistModel::Synch:
      case PersistModel::REnf:
        return net::MsgType::VAL;
      case PersistModel::Strict:
      case PersistModel::Event:
        return net::MsgType::VAL_C;
      case PersistModel::Scope:
        return net::MsgType::VAL_C_SC;
    }
    return net::MsgType::VAL;
}

/**
 * Identity of one write: (key, packed TS_WR). TS_WR versions are
 * per-record, so the key participates in the identity.
 */
using TxnKey = std::pair<kv::Key, std::uint64_t>;

struct TxnKeyHash
{
    std::size_t
    operator()(const TxnKey &k) const noexcept
    {
        return std::hash<std::uint64_t>()(k.first * 0x9E3779B9u) ^
               std::hash<std::uint64_t>()(k.second);
    }
};

inline TxnKey
txnKey(kv::Key key, const kv::Timestamp &ts)
{
    return {key, ts.pack()};
}

} // namespace minos::simproto

#endif // MINOS_SIMPROTO_MODELS_HH
