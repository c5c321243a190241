#include "random.hh"

#include <cmath>

#include "logging.hh"

namespace minos {

namespace {

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // splitmix64 expands the seed into xoshiro state.
    std::uint64_t x = seed;
    for (auto &w : s)
        w = mix64(x += 0x9E3779B97F4A7C15ull);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

std::uint64_t
Rng::nextUint(std::uint64_t bound)
{
    MINOS_ASSERT(bound > 0, "nextUint bound must be positive");
    // Lemire's multiply-shift rejection-free mapping is fine here; a tiny
    // modulo bias is irrelevant for workload generation, but avoid it
    // anyway via 128-bit multiply.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

double
Rng::nextDouble()
{
    return (next() >> 11) * 0x1.0p-53;
}

std::int64_t
Rng::nextInt(std::int64_t lo, std::int64_t hi)
{
    MINOS_ASSERT(lo <= hi, "nextInt empty range");
    return lo + static_cast<std::int64_t>(
        nextUint(static_cast<std::uint64_t>(hi - lo) + 1));
}

UniformKeys::UniformKeys(std::uint64_t num_keys) : numKeys_(num_keys)
{
    MINOS_ASSERT(num_keys > 0, "UniformKeys needs >= 1 key");
}

std::uint64_t
UniformKeys::next(Rng &rng)
{
    return rng.nextUint(numKeys_);
}

namespace {

double
zeta(std::uint64_t n, double theta)
{
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
}

/**
 * zeta(n, theta), memoised per thread for the last (n, theta) asked. A
 * run builds one generator per node, all of one shape, and each zeta()
 * of the paper's 100 K keys is 100 K pow() calls.
 */
double
memoZeta(std::uint64_t n, double theta)
{
    struct Memo
    {
        std::uint64_t n = 0; ///< never a valid key count
        double theta = 0.0;
        double zeta = 0.0;
    };
    thread_local Memo memo;
    if (memo.n != n || memo.theta != theta)
        memo = {n, theta, zeta(n, theta)};
    return memo.zeta;
}

} // namespace

ZipfianKeys::ZipfianKeys(std::uint64_t num_keys, double theta)
    : numKeys_(num_keys), theta_(theta)
{
    MINOS_ASSERT(num_keys > 0, "ZipfianKeys needs >= 1 key");
    MINOS_ASSERT(theta > 0.0 && theta < 1.0,
                 "zipfian theta must be in (0, 1)");
    zetan_ = memoZeta(numKeys_, theta_);
    zeta2Theta_ = zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(numKeys_),
                           1.0 - theta_)) /
           (1.0 - zeta2Theta_ / zetan_);
}

std::uint64_t
ZipfianKeys::nextRank(Rng &rng)
{
    // Gray et al. rejection-free inversion.
    double u = rng.nextDouble();
    double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    auto rank = static_cast<std::uint64_t>(
        static_cast<double>(numKeys_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= numKeys_)
        rank = numKeys_ - 1;
    return rank;
}

std::uint64_t
ZipfianKeys::next(Rng &rng)
{
    return fnv1aHash64(nextRank(rng)) % numKeys_;
}

std::uint64_t
fnv1aHash64(std::uint64_t value)
{
    std::uint64_t hash = 0xCBF29CE484222325ull;
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (i * 8)) & 0xFF;
        hash *= 0x100000001B3ull;
    }
    return hash;
}

} // namespace minos
