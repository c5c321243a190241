/**
 * @file
 * Deterministic pseudo-random sources for workload generation.
 *
 * Includes the YCSB-style scrambled zipfian generator (Gray et al.,
 * "Quickly Generating Billion-Record Synthetic Databases") used by the
 * paper's default workload, plus a uniform generator for the Fig. 14
 * key-distribution sensitivity study.
 */

#ifndef MINOS_COMMON_RANDOM_HH
#define MINOS_COMMON_RANDOM_HH

#include <cstdint>
#include <random>

namespace minos {

/**
 * splitmix64's finalizer (Steele et al.): a bijective 64-bit mix in
 * which every input bit reaches every output bit.
 */
constexpr std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/**
 * Small, fast, seedable PRNG (xoshiro256**).
 *
 * Deterministic across platforms so experiment output is reproducible.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). @pre bound > 0 */
    std::uint64_t nextUint(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform integer in [lo, hi]. */
    std::int64_t nextInt(std::int64_t lo, std::int64_t hi);

    // UniformRandomBitGenerator interface.
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }
    result_type operator()() { return next(); }

  private:
    std::uint64_t s[4];
};

/** Key-distribution interface: produces keys in [0, numKeys). */
class KeyDistribution
{
  public:
    virtual ~KeyDistribution() = default;

    /** Draw the next key. */
    virtual std::uint64_t next(Rng &rng) = 0;
};

/** Uniform keys over [0, numKeys). */
class UniformKeys : public KeyDistribution
{
  public:
    explicit UniformKeys(std::uint64_t num_keys);

    std::uint64_t next(Rng &rng) override;

  private:
    std::uint64_t numKeys_;
};

/**
 * Scrambled zipfian keys over [0, numKeys) with skew theta
 * (YCSB default 0.99).
 *
 * The raw zipfian rank is scrambled with an FNV-style hash so hot keys are
 * spread over the key space, matching YCSB's ScrambledZipfianGenerator.
 */
class ZipfianKeys : public KeyDistribution
{
  public:
    ZipfianKeys(std::uint64_t num_keys, double theta = 0.99);

    std::uint64_t next(Rng &rng) override;

    /** Raw (unscrambled) zipfian rank; rank 0 is the hottest. */
    std::uint64_t nextRank(Rng &rng);

  private:
    std::uint64_t numKeys_;
    double theta_;
    double zetan_;
    double alpha_;
    double eta_;
    double zeta2Theta_;
};

/** 64-bit FNV-1a hash, used for zipfian scrambling. */
std::uint64_t fnv1aHash64(std::uint64_t value);

} // namespace minos

#endif // MINOS_COMMON_RANDOM_HH
