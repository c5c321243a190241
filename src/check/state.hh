/**
 * @file
 * The model checker's abstract protocol state, its fingerprint, and the
 * packed form the BFS queue holds it in.
 */

#ifndef MINOS_CHECK_STATE_HH
#define MINOS_CHECK_STATE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <utility>

#include "check/checker.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace minos::check {

/**
 * The abstract protocol state. All members are single bytes so the
 * struct has no padding and can be hashed bytewise.
 */
struct State
{
    // Per node (one record).
    std::int8_t rdOwner[maxNodes];
    std::int8_t vol[maxNodes];
    std::int8_t glbV[maxNodes];
    std::int8_t glbD[maxNodes];
    std::int8_t nextVer[maxNodes];
    // Per write.
    std::uint8_t cpc[maxWrites];
    std::int8_t ver[maxWrites];
    std::int8_t obsObs[maxWrites];
    std::uint8_t ackCMask[maxWrites];
    std::uint8_t ackPMask[maxWrites];
    std::uint8_t bgPending[maxWrites];
    // Per write x node.
    std::uint8_t msgs[maxWrites][maxNodes];
    std::uint8_t fpc[maxWrites][maxNodes];
    std::int8_t fObs[maxWrites][maxNodes];
    std::uint8_t durable[maxWrites][maxNodes];
    // [PERSIST]sc transaction.
    std::uint8_t ppc;
    std::uint8_t pAckMask;
    std::uint8_t pMsgs[maxNodes];
};

static_assert(sizeof(State) ==
                  5 * maxNodes + 6 * maxWrites +
                      4 * maxWrites * maxNodes + 2 + maxNodes,
              "State must be packed (byte members only)");

namespace detail {

inline std::uint64_t
load64(const unsigned char *p)
{
    std::uint64_t w = 0;
    std::memcpy(&w, p, sizeof w);
    return w;
}

/** Fold a 128-bit product: one multiply that mixes every input bit. */
inline std::uint64_t
mum(std::uint64_t a, std::uint64_t b)
{
    const unsigned __int128 m = static_cast<unsigned __int128>(a) * b;
    return static_cast<std::uint64_t>(m >> 64) ^
           static_cast<std::uint64_t>(m);
}

/** 16-byte lanes of a State; the last one overlaps the one before. */
inline constexpr std::size_t hashLanes = (sizeof(State) + 15) / 16;

/** Two keys per lane and two for the finalizer: splitmix64 of 1, 2, ... */
inline constexpr auto hashKeys = [] {
    std::array<std::uint64_t, 2 * hashLanes + 2> keys{};
    std::uint64_t x = 0;
    for (std::uint64_t &k : keys)
        k = mix64(x += 0x9E3779B97F4A7C15ull);
    return keys;
}();

using PackedStateWords = std::array<std::uint64_t, 4>;

/**
 * A run of consecutive State bytes packed at one width: up to eight
 * bytes are loaded as one word and squeezed into lanes x width bits.
 */
struct Chunk
{
    unsigned off;   ///< first State byte
    unsigned lanes; ///< bytes, at most 8
    unsigned width; ///< bits kept of each, at most 7
};

/**
 * Every State byte in order, each chunk as wide as its widest field:
 * write and node indices (-1..2) and fObs in 2 bits, versions, program
 * counters and ACK masks in 3, follower pcs in 4, msgs in 7, pMsgs in 5,
 * flags in 1. 253 bits in all.
 */
inline constexpr std::array<Chunk, 11> packChunks{{
    {0, 1, 2},  // rdOwner[0]
    {1, 8, 2},  // rdOwner, vol, glbV
    {9, 8, 3},  // glbD, nextVer, cpc[0..1]
    {17, 8, 3}, // cpc[2], ver, obsObs, ackCMask[0]
    {25, 8, 3}, // ackCMask, ackPMask, bgPending
    {33, 3, 7}, // msgs[0]
    {36, 8, 7}, // msgs[1..2], fpc[0][0..1]
    {44, 8, 4}, // fpc, fObs[0][0]
    {52, 8, 2}, // fObs
    {60, 8, 1}, // durable
    {68, 6, 5}, // durable[2][2], ppc, pAckMask, pMsgs
}};

/**
 * The values a State field takes, as the checker sets them; -1 is the
 * byte 0xFF. checker.cc asserts that its constants stay inside these.
 */
struct FieldRange
{
    unsigned off;   ///< first State byte
    unsigned bytes; ///< State bytes of the field
    int lo;
    int hi;
};

inline constexpr int writeIndexMax = maxWrites - 1;
inline constexpr int nodeMaskMax = (1 << maxNodes) - 1;

/**
 * Every State field in order. A version is at most the number of
 * writes started before its own (invariant 4b reports one above
 * maxWrites), and nextVer is one above a version. Coordinator pcs run
 * up to CDone and follower pcs up to the last compiled step, with -1
 * for fpcDone; msgs and pMsgs are the MsgBit and PBit sets.
 */
inline constexpr std::array<FieldRange, 18> fieldRanges{{
    {offsetof(State, rdOwner), maxNodes, -1, writeIndexMax},
    {offsetof(State, vol), maxNodes, -1, writeIndexMax},
    {offsetof(State, glbV), maxNodes, -1, writeIndexMax},
    {offsetof(State, glbD), maxNodes, -1, writeIndexMax},
    {offsetof(State, nextVer), maxNodes, 0, maxWrites + 1},
    {offsetof(State, cpc), maxWrites, 0, 7},
    {offsetof(State, ver), maxWrites, -1, maxWrites},
    {offsetof(State, obsObs), maxWrites, -1, writeIndexMax},
    {offsetof(State, ackCMask), maxWrites, 0, nodeMaskMax},
    {offsetof(State, ackPMask), maxWrites, 0, nodeMaskMax},
    {offsetof(State, bgPending), maxWrites, 0, 1},
    {offsetof(State, msgs), maxWrites * maxNodes, 0, 127},
    {offsetof(State, fpc), maxWrites * maxNodes, -1, 14},
    {offsetof(State, fObs), maxWrites * maxNodes, -1, writeIndexMax},
    {offsetof(State, durable), maxWrites * maxNodes, 0, 1},
    {offsetof(State, ppc), 1, 0, 2},
    {offsetof(State, pAckMask), 1, 0, nodeMaskMax},
    {offsetof(State, pMsgs), maxNodes, 0, 31},
}};

/** The range of the field that holds State byte @p b. */
constexpr FieldRange
fieldAt(std::size_t b)
{
    for (const FieldRange &f : fieldRanges) {
        if (b >= f.off && b < f.off + f.bytes)
            return f;
    }
    return {0, 0, 0, -1}; // no field: an empty range
}

/**
 * State bytes whose all-ones value in their chunk's width stands for
 * 0xFF: the -1 of a write index, of an unset version and fpcDone.
 */
inline constexpr bool
isSentinelByte(unsigned b)
{
    return fieldAt(b).lo < 0;
}

constexpr std::uint64_t
repeat(std::uint64_t pattern, unsigned every)
{
    std::uint64_t r = 0;
    for (unsigned i = 0; i < 64; i += every)
        r |= pattern << i;
    return r;
}

constexpr std::uint64_t
lowBits(unsigned n)
{
    return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/** Bit position of each chunk in the packed words. */
inline constexpr auto chunkPos = [] {
    std::array<unsigned, packChunks.size() + 1> pos{};
    for (std::size_t i = 0; i < packChunks.size(); ++i)
        pos[i + 1] = pos[i] + packChunks[i].lanes * packChunks[i].width;
    return pos;
}();

static_assert(chunkPos.back() <= 256, "a packed State is four words");
static_assert(packChunks.back().off + packChunks.back().lanes ==
              sizeof(State));
static_assert([] {
    for (std::size_t i = 0; i + 1 < packChunks.size(); ++i) {
        if (packChunks[i].off + packChunks[i].lanes != packChunks[i + 1].off)
            return false;
    }
    return true;
}(), "chunks cover every State byte once, in order");
static_assert([] {
    unsigned next = 0;
    for (const FieldRange &f : fieldRanges) {
        if (f.off != next)
            return false;
        next += f.bytes;
    }
    return next == sizeof(State);
}(), "fieldRanges cover every State byte once, in order");

/** Bits kept of State byte @p b. */
constexpr unsigned
widthOf(unsigned b)
{
    for (const Chunk &c : packChunks) {
        if (b >= c.off && b < c.off + c.lanes)
            return c.width;
    }
    return 0;
}

static_assert([] {
    for (unsigned b = 0; b < sizeof(State); ++b) {
        const FieldRange f = fieldAt(b);
        // A sentinel byte keeps all ones for -1, so its other values
        // stay below that.
        const int top = (1 << widthOf(b)) - 1 - (f.lo < 0 ? 1 : 0);
        if (f.lo < -1 || f.hi > top)
            return false;
    }
    return true;
}(), "every field's range fits the width its chunk keeps");

/**
 * Squeeze the low @p W bits of each byte of @p x into 8W bits: three
 * steps, each joining neighbouring lanes of 8, 16 and 32 bits.
 */
template <unsigned W>
std::uint64_t
squeeze(std::uint64_t x)
{
    constexpr std::uint64_t k8 = repeat(lowBits(W), 16);
    constexpr std::uint64_t k16 = repeat(lowBits(2 * W), 32);
    constexpr std::uint64_t k32 = lowBits(4 * W);
    x = (x & k8) | (x >> (8 - W) & k8 << W);
    x = (x & k16) | (x >> (16 - 2 * W) & k16 << 2 * W);
    return (x & k32) | (x >> (32 - 4 * W) & k32 << 4 * W);
}

/** The inverse of squeeze(). */
template <unsigned W>
std::uint64_t
spread(std::uint64_t x)
{
    constexpr std::uint64_t k8 = repeat(lowBits(W), 16);
    constexpr std::uint64_t k16 = repeat(lowBits(2 * W), 32);
    constexpr std::uint64_t k32 = lowBits(4 * W);
    x = (x & k32) | (x << (32 - 4 * W) & k32 << 32);
    x = (x & k16) | (x << (16 - 2 * W) & k16 << 16);
    return (x & k8) | (x << (8 - W) & k8 << 8);
}

/** Lanes of chunk @p c whose bytes are sentinel bytes, one bit each. */
constexpr std::uint64_t
sentinelLanes(Chunk c)
{
    std::uint64_t lanes = 0;
    for (unsigned b = 0; b < c.lanes; ++b) {
        if (isSentinelByte(c.off + b))
            lanes |= std::uint64_t{1} << 8 * b;
    }
    return lanes;
}

/** The State bytes of chunk @p I, lane b in bits 8b... */
template <std::size_t I>
std::uint64_t
loadChunk(const unsigned char *p)
{
    constexpr Chunk c = packChunks[I];
    std::uint64_t x = 0;
    if constexpr (c.off + 8 <= sizeof(State))
        x = load64(p + c.off);
    else
        std::memcpy(&x, p + c.off, c.lanes);
    return x;
}

/** Squeeze chunk @p I's bytes @p x into its bits of @p out. */
template <std::size_t I>
void
packChunk(std::uint64_t x, PackedStateWords &out)
{
    constexpr Chunk c = packChunks[I];
    constexpr unsigned pos = chunkPos[I];
    x = squeeze<c.width>(x & (repeat(lowBits(c.width), 8) &
                              lowBits(8 * c.lanes)));
    out[pos / 64] |= x << pos % 64;
    if constexpr (pos % 64 + c.lanes * c.width > 64)
        out[pos / 64 + 1] |= x >> (64 - pos % 64);
}

template <std::size_t I>
void
unpackChunk(const PackedStateWords &in, unsigned char *p)
{
    constexpr Chunk c = packChunks[I];
    constexpr unsigned pos = chunkPos[I];
    std::uint64_t x = in[pos / 64] >> pos % 64;
    if constexpr (pos % 64 + c.lanes * c.width > 64)
        x |= in[pos / 64 + 1] << (64 - pos % 64);
    x = spread<c.width>(x & lowBits(c.lanes * c.width));
    if constexpr (constexpr std::uint64_t lanes = sentinelLanes(c)) {
        // A lane of all ones carries into bit `width` when 1 is added.
        const std::uint64_t full = (x + repeat(1, 8)) >> c.width & lanes;
        x |= full * (0x100 - (std::uint64_t{1} << c.width));
    }
    std::memcpy(p + c.off, &x, c.lanes);
}

} // namespace detail

/**
 * 64-bit hash of a State in independent 16-byte lanes: each lane's two
 * words, XORed with keys of their own, are folded by one multiply, so
 * no multiply waits for another. The lane sum is finalized once.
 */
inline std::uint64_t
hashState(const State &s)
{
    using namespace detail;
    static_assert(sizeof(State) >= 16);
    const auto *p = reinterpret_cast<const unsigned char *>(&s);
    std::uint64_t h = 0;
    for (std::size_t l = 0; l < hashLanes; ++l) {
        const std::size_t off = std::min(16 * l, sizeof(State) - 16);
        h += mum(load64(p + off) ^ hashKeys[2 * l],
                 load64(p + off + 8) ^ hashKeys[2 * l + 1]);
    }
    return mum(h ^ hashKeys[2 * hashLanes], hashKeys[2 * hashLanes + 1]);
}

/**
 * A State in 32 bytes, for the BFS queue. Every field keeps only the
 * bits its range needs (detail::packChunks), so a state packs and
 * unpacks exactly when each field is in range: write indices -1..2,
 * versions -1..6, follower pcs 0..14 or fpcDone, message bits and
 * masks of their declared width.
 */
struct PackedState
{
    detail::PackedStateWords words;
};

inline PackedState
pack(const State &s)
{
    const auto *p = reinterpret_cast<const unsigned char *>(&s);
    PackedState out{};
    // Every chunk is loaded before any bit is stored: the result may be
    // built in place, and a store through it could alias the State's
    // bytes, so each |= would wait for the store before it.
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        const std::array<std::uint64_t, sizeof...(I)> x{
            detail::loadChunk<I>(p)...};
        detail::PackedStateWords w{};
        (detail::packChunk<I>(x[I], w), ...);
        out.words = w;
    }(std::make_index_sequence<detail::packChunks.size()>());
    return out;
}

inline State
unpack(const PackedState &in)
{
    State s;
    auto *p = reinterpret_cast<unsigned char *>(&s);
    // A local copy: a store through the State's bytes could alias the
    // packed words and force them to be loaded again.
    const detail::PackedStateWords w = in.words;
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        (detail::unpackChunk<I>(w, p), ...);
    }(std::make_index_sequence<detail::packChunks.size()>());
    return s;
}

/**
 * Debug and sanitizer builds unpack every state the queue packs and
 * compare it with the original: a field outside its range (a checker
 * change that widened one) would be cut to its width and expanded as
 * another state.
 */
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__)
inline constexpr bool checkPacking = true;
#else
inline constexpr bool checkPacking = false;
#endif

/**
 * The BFS queue: states leave it in the order they entered. While no
 * state is packed, up to frontStates of them wait as they are; later
 * ones are packed, behind them. A search whose queue never grows past
 * frontStates, as on the smallest models, packs nothing: the 2-node,
 * 1-write search runs in about three quarters of the time it takes
 * packing every state. A large one keeps 32 bytes per waiting state.
 */
class StateQueue
{
  public:
    static constexpr std::size_t frontStates = 64;

    bool empty() const { return frontSize_ == 0 && packed_.empty(); }
    std::size_t size() const { return frontSize_ + packed_.size(); }

    void
    push(const State &s)
    {
        if (packed_.empty() && frontSize_ < frontStates) {
            front_[(frontHead_ + frontSize_++) % frontStates] = s;
            return;
        }
        const PackedState p = pack(s);
        if constexpr (checkPacking) {
            const State back = unpack(p);
            MINOS_ASSERT(std::memcmp(&back, &s, sizeof s) == 0,
                         "a State field is outside its packed width");
        }
        packed_.push_back(p);
    }

    /** Take the oldest state; the queue must not be empty. */
    State
    pop()
    {
        if (frontSize_ > 0) {
            const State &s = front_[frontHead_];
            frontHead_ = (frontHead_ + 1) % frontStates;
            --frontSize_;
            return s;
        }
        const State s = unpack(packed_.front());
        packed_.pop_front();
        return s;
    }

  private:
    std::array<State, frontStates> front_; ///< a ring, oldest at frontHead_
    std::size_t frontHead_ = 0;
    std::size_t frontSize_ = 0;
    std::deque<PackedState> packed_;
};

} // namespace minos::check

#endif // MINOS_CHECK_STATE_HH
