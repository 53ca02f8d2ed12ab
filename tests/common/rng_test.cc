/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hh"

namespace dora
{
namespace
{

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, LabelSeedingIsStable)
{
    Rng a("page:amazon"), b("page:amazon"), c("page:imdb");
    EXPECT_EQ(a.next(), b.next());
    Rng a2("page:amazon");
    EXPECT_NE(a2.next(), c.next());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(8);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanIsCentered)
{
    Rng rng(9);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysBelow)
{
    Rng rng(10);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(12);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, ChanceProbability)
{
    Rng rng(14);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (rng.chance(0.3))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(15);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceThresholdMatchesUniformCompare)
{
    // chanceBelow(chanceThreshold(p)) must decide exactly as
    // uniform() < p on every draw, at the edges and in between.
    const double ps[] = {-0.0, 0.0, 0x1.0p-60, 0x1.0p-53, 0.5,
                         std::nextafter(1.0, 0.0), 1.0, 1.5,
                         std::nan(""), -0.25, 0.3, 0.9};
    for (double p : ps) {
        const uint64_t threshold = Rng::chanceThreshold(p);
        Rng a(18), b(18);
        for (int i = 0; i < 100000; ++i)
            ASSERT_EQ(a.chanceBelow(threshold), b.uniform() < p)
                << "p=" << p << " draw " << i;
    }
    // The draws an exact compare hinges on: u = 0 is the only 53-bit
    // draw below 2^-60, and u = 2^53 - 1 is the only one not below
    // nextafter(1, 0).
    EXPECT_EQ(Rng::chanceThreshold(0x1.0p-60), 1u);
    EXPECT_EQ(Rng::chanceThreshold(std::nextafter(1.0, 0.0)),
              (uint64_t{1} << 53) - 1);
    EXPECT_EQ(Rng::chanceThreshold(1.0), uint64_t{1} << 53);
    EXPECT_EQ(Rng::chanceThreshold(-0.0), 0u);
    EXPECT_EQ(Rng::chanceThreshold(std::nan("")), 0u);
}

TEST(Rng, BurstLengthBelowMatchesChanceLoop)
{
    // burstLength() draws through the threshold helper; it must equal
    // the plain chance() loop draw for draw.
    for (double p : {0.0, 0.1, 0.5, 0.9, 1.0}) {
        Rng a(19), b(19);
        for (int i = 0; i < 20000; ++i) {
            uint64_t len = 1;
            while (len < 32 && b.chance(p))
                ++len;
            ASSERT_EQ(a.burstLength(p, 32), len) << "p=" << p;
        }
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, BurstLengthBounds)
{
    Rng rng(16);
    for (int i = 0; i < 10000; ++i) {
        const uint64_t len = rng.burstLength(0.9, 32);
        EXPECT_GE(len, 1u);
        EXPECT_LE(len, 32u);
    }
}

TEST(Rng, BurstLengthMeanMatchesGeometric)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.burstLength(0.5, 1 << 20));
    // E[len] = 1/(1-p) = 2 for p = 0.5.
    EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, ForkIsDeterministicAndIndependent)
{
    Rng a(99), b(99);
    Rng fa = a.fork("x");
    Rng fb = b.fork("x");
    EXPECT_EQ(fa.next(), fb.next());

    Rng c(99);
    Rng fc = c.fork("y");
    Rng fd = Rng(99).fork("x");
    EXPECT_NE(fc.next(), fd.next());
}

TEST(Rng, HashLabelStable)
{
    EXPECT_EQ(hashLabel("abc"), hashLabel("abc"));
    EXPECT_NE(hashLabel("abc"), hashLabel("abd"));
    EXPECT_NE(hashLabel(""), hashLabel("a"));
}

} // namespace
} // namespace dora
