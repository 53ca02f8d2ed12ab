/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic element of the simulator draws from an Rng seeded from
 * the owning component's identity, so a given workload combination always
 * reproduces the same address streams, phase jitter, and measurements.
 * The generator is xoshiro256** (Blackman & Vigna), which is fast, has a
 * 2^256-1 period, and passes BigCrush.
 */

#ifndef DORA_COMMON_RNG_HH
#define DORA_COMMON_RNG_HH

#include <cmath>
#include <cstdint>
#include <string_view>

namespace dora
{

/**
 * Deterministic xoshiro256** generator with convenience draws.
 *
 * Copyable; copies continue the sequence independently from the point of
 * the copy, which is occasionally useful for "what-if" replays in tests.
 */
class Rng
{
  public:
    /** Seed from a 64-bit value via SplitMix64 state expansion. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Seed from a string label, e.g. "page:amazon/kernel:bfs". */
    explicit Rng(std::string_view label);

    // The per-draw primitives are defined in the header: address-stream
    // generation draws once or more per modeled cache access, so the
    // sampled-walk hot path (DESIGN.md §5g) needs these inlined into
    // its burst loops rather than paying a call per draw. The
    // arithmetic is unchanged — draw sequences are bit-identical to
    // the out-of-line versions.

    /** Next raw 64-bit draw. */
    uint64_t next()
    {
        const uint64_t result = rotl_(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl_(s_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        // 53 high bits -> double in [0, 1).
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). Requires lo <= hi. */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    uint64_t below(uint64_t n)
    {
        if (n == 0)
            belowZeroPanic_();
        // Modulo bias is negligible for the simulator's n << 2^64.
        return next() % n;
    }

    /** Standard normal draw (Box-Muller, one value per call). */
    double gaussian();

    /** Normal draw with the given mean and standard deviation. */
    double gaussian(double mean, double sd);

    /** Bernoulli draw with probability p of true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Integer form of chance(p): chanceBelow(chanceThreshold(p)) makes
     * the same decision as chance(p) from the same draw, for every p.
     * uniform() is exactly u * 2^-53 for the 53-bit draw u, so
     * uniform() < p holds iff u < p * 2^53, i.e. iff u < ceil(p * 2^53)
     * (the scaling and the ceil are exact in double). NaN and p <= 0
     * give 0 (never true); p >= 1 gives 2^53 (always true). Hot
     * loops compute the threshold once per probability and skip the
     * int-to-double conversion on every draw.
     */
    static uint64_t chanceThreshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return uint64_t{1} << 53;
        return static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
    }

    /** Bernoulli draw against a chanceThreshold(). */
    bool chanceBelow(uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /**
     * Geometric-ish burst length in [1, cap]: used by address stream
     * generators to model runs of sequential accesses.
     */
    uint64_t burstLength(double continue_prob, uint64_t cap)
    {
        return burstLengthBelow(chanceThreshold(continue_prob), cap);
    }

    /** burstLength() with the continue probability as a threshold. */
    uint64_t burstLengthBelow(uint64_t continue_threshold, uint64_t cap)
    {
        uint64_t len = 1;
        while (len < cap && chanceBelow(continue_threshold))
            ++len;
        return len;
    }

    /** Derive a child generator from this one plus a salt label. */
    Rng fork(std::string_view salt);

    /**
     * Serializable stream state: the four xoshiro256** words. A
     * generator restored via setState() continues the exact draw
     * sequence of the captured one — the enabling primitive for
     * checkpoint/replay of simulation state (common/snapshot.hh).
     */
    struct State
    {
        uint64_t s[4] = {0, 0, 0, 0};
    };

    /** Capture the current stream state. */
    State state() const;

    /** Resume from a captured stream state. */
    void setState(const State &state);

  private:
    static uint64_t rotl_(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** Out-of-line failure path keeps logging out of this header. */
    [[noreturn]] static void belowZeroPanic_();

    uint64_t s_[4];
};

/** Stable 64-bit FNV-1a hash of a string, used for label seeding. */
uint64_t hashLabel(std::string_view label);

} // namespace dora

#endif // DORA_COMMON_RNG_HH
