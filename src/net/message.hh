/**
 * @file
 * Protocol messages of the MINOS DDP algorithms.
 *
 * The legal vocabulary is exactly the paper's Table I type-check set:
 *   INV, ACK, ACK_C, ACK_P, VAL, VAL_C, VAL_P,
 *   [INV]sc, [ACK_C]sc, [ACK_P]sc, [VAL_C]sc, [VAL_P]sc, [PERSIST]sc.
 *
 * Messages carry the client-write timestamp TS_WR, which uniquely
 * identifies the transaction, plus the abstract value token. INV-class
 * messages are data-sized (the record, default 1 KB); all others are
 * small control messages.
 */

#ifndef MINOS_NET_MESSAGE_HH
#define MINOS_NET_MESSAGE_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

#include "common/units.hh"
#include "kv/record.hh"
#include "kv/timestamp.hh"

namespace minos::net {

/** Scope identifier for the <Lin, Scope> model. */
using ScopeId = std::uint32_t;

/** All legal message types (paper Table I, check 4a). */
enum class MsgType : std::uint8_t
{
    INV,
    ACK,
    ACK_C,
    ACK_P,
    VAL,
    VAL_C,
    VAL_P,
    INV_SC,
    ACK_C_SC,
    ACK_P_SC,
    VAL_C_SC,
    VAL_P_SC,
    PERSIST_SC,
};

/** Human-readable message-type name. */
std::string_view msgTypeName(MsgType type);

/** The four kinds of message a receiver handles: the INV family, the
 *  ACK flavors, the VAL flavors and [PERSIST]sc. */
enum class MsgFamily : std::uint8_t
{
    Inv,
    Ack,
    Val,
    PersistSc,
};

/** The family of @p type. */
constexpr MsgFamily
familyOf(MsgType type)
{
    using F = MsgFamily;
    // In MsgType order.
    constexpr F families[] = {F::Inv, F::Ack, F::Ack, F::Ack, F::Val,
                              F::Val, F::Val, F::Inv, F::Ack, F::Ack,
                              F::Val, F::Val, F::PersistSc};
    static_assert(std::size(families) ==
                  static_cast<std::size_t>(MsgType::PERSIST_SC) + 1);
    return families[static_cast<std::size_t>(type)];
}

/** True for the INV family (messages that carry the record data). */
constexpr bool
carriesData(MsgType type)
{
    return type == MsgType::INV || type == MsgType::INV_SC;
}

/** True for the scoped ([...]sc) message family. */
constexpr bool
isScoped(MsgType type)
{
    switch (type) {
      case MsgType::INV_SC:
      case MsgType::ACK_C_SC:
      case MsgType::ACK_P_SC:
      case MsgType::VAL_C_SC:
      case MsgType::VAL_P_SC:
      case MsgType::PERSIST_SC:
        return true;
      default:
        return false;
    }
}

/** One protocol message. */
struct Message
{
    MsgType type = MsgType::INV;
    kv::NodeId src = -1;
    kv::NodeId dst = -1;
    kv::Key key = 0;
    /** The client-write's unique timestamp (or the PERSIST's). */
    kv::Timestamp tsWr = kv::Timestamp::none();
    kv::Value value = 0;
    ScopeId scope = 0;
    /** Wire size used by the link timing models. */
    std::uint32_t sizeBytes = 64;
    /**
     * Follower-side handling time, piggybacked on ACK-family responses;
     * used to compute the paper's communication/computation split
     * (Fig. 4).
     */
    Tick handleNs = 0;
    /**
     * Destination bitmap for batched INV/VAL between host and SmartNIC
     * (MINOS-O §V-B.3). Bit i set = node i is a destination. Zero for
     * ordinary point-to-point messages.
     */
    std::uint64_t destMask = 0;
};

static_assert(sizeof(Message) == 64, "a message fills one cache line");

/** Size in bytes of a control (non-data) message on the wire. */
inline constexpr std::uint32_t controlMsgBytes = 64;

/** The transaction @p m belongs to: its scope's [PERSIST]sc for
 *  PERSIST_SC, [ACK_P]sc and [VAL_P]sc, its write for every other. */
inline kv::WriteId
txnOf(const Message &m)
{
    if (m.type == MsgType::PERSIST_SC || m.type == MsgType::ACK_P_SC ||
        m.type == MsgType::VAL_P_SC)
        return kv::WriteId::ofScope(m.scope);
    return kv::WriteId::of(m.key, m.tsWr);
}

/** @{
 * Build the template of a message @p src sends to every follower (its
 * dst is set per copy). Only the INV family carries the record: an INV
 * takes the record's @p record_bytes over a control message's size, a
 * VAL or a [PERSIST]sc the control size.
 */
inline Message
makeInv(MsgType type, kv::NodeId src, kv::Key key, kv::Value value,
        kv::Timestamp ts, ScopeId scope, std::uint32_t record_bytes)
{
    return {.type = type, .src = src, .key = key, .tsWr = ts,
            .value = value, .scope = scope,
            .sizeBytes = record_bytes + controlMsgBytes};
}

inline Message
makeVal(MsgType type, kv::NodeId src, kv::Key key, kv::Timestamp ts,
        ScopeId scope)
{
    return {.type = type, .src = src, .key = key, .tsWr = ts,
            .scope = scope, .sizeBytes = controlMsgBytes};
}

inline Message
makePersistSc(kv::NodeId src, ScopeId scope)
{
    return {.type = MsgType::PERSIST_SC, .src = src, .scope = scope,
            .sizeBytes = controlMsgBytes};
}
/** @} */

/** Build a control-message response template (src/dst swapped). */
Message makeResponse(const Message &req, MsgType type);

} // namespace minos::net

#endif // MINOS_NET_MESSAGE_HH
