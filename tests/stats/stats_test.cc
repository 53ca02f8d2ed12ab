/**
 * @file
 * Unit tests for RunningStat and EmpiricalCdf.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "exec/thread_pool.hh"
#include "stats/cdf.hh"
#include "stats/running_stat.hh"

namespace dora
{
namespace
{

TEST(RunningStat, EmptyDefaults)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStat, KnownMoments)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.push(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesCombinedStream)
{
    RunningStat a, b, both;
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.gaussian(3.0, 2.0);
        (i % 2 ? a : b).push(x);
        both.push(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_NEAR(a.mean(), both.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), both.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), both.min());
    EXPECT_DOUBLE_EQ(a.max(), both.max());
}

TEST(RunningStat, MergeWithEmpty)
{
    RunningStat a, empty;
    a.push(1.0);
    a.push(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    RunningStat b;
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStat, ResetClears)
{
    RunningStat s;
    s.push(10.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(EmpiricalCdf, FractionAtOrBelow)
{
    EmpiricalCdf cdf;
    cdf.push({1.0, 2.0, 3.0, 4.0});
    cdf.seal();
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(1.0), 0.25);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(2.5), 0.5);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(4.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(99.0), 1.0);
}

TEST(EmpiricalCdf, Quantiles)
{
    EmpiricalCdf cdf;
    for (int i = 1; i <= 100; ++i)
        cdf.push(static_cast<double>(i));
    cdf.seal();
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 50.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.9), 90.0);
    EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
    EXPECT_DOUBLE_EQ(cdf.max(), 100.0);
    EXPECT_DOUBLE_EQ(cdf.mean(), 50.5);
}

TEST(EmpiricalCdf, SeriesIsMonotone)
{
    EmpiricalCdf cdf;
    Rng rng(3);
    for (int i = 0; i < 500; ++i)
        cdf.push(rng.gaussian());
    cdf.seal();
    const auto series = cdf.series(20);
    ASSERT_EQ(series.size(), 20u);
    for (size_t i = 1; i < series.size(); ++i) {
        EXPECT_LE(series[i - 1].first, series[i].first);
        EXPECT_LE(series[i - 1].second, series[i].second);
    }
    EXPECT_DOUBLE_EQ(series.back().second, 1.0);
}

TEST(EmpiricalCdf, PushAfterSealUnsealsAndResealResorts)
{
    EmpiricalCdf cdf;
    EXPECT_TRUE(cdf.sealed()); // an empty CDF is trivially sorted
    cdf.push(2.0);
    EXPECT_FALSE(cdf.sealed());
    cdf.seal();
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(2.0), 1.0);
    cdf.push(1.0);
    EXPECT_FALSE(cdf.sealed());
    cdf.seal();
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(1.0), 0.5);
    EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
}

TEST(EmpiricalCdfDeath, UnsealedQueryPanics)
{
    EmpiricalCdf cdf;
    cdf.push(2.0);
    cdf.push(1.0);
    EXPECT_DEATH(cdf.quantile(0.5), "unsealed");
    EXPECT_DEATH(cdf.min(), "unsealed");
    EXPECT_DEATH(cdf.fractionAtOrBelow(1.5), "unsealed");
    EXPECT_DEATH(cdf.series(4), "unsealed");
}

// TSan regression for the lazy-sort-under-const race this API replaced:
// one sealed CDF queried concurrently from parallelMap workers must be
// a pure read. (The test name matches the ParallelMap pattern in
// scripts/run_sanitized_tests.sh so it runs in the TSan leg.)
TEST(ParallelMapCdf, SealedSharedQueriesAreRaceFree)
{
    EmpiricalCdf cdf;
    Rng rng(11);
    for (int i = 0; i < 4096; ++i)
        cdf.push(rng.gaussian());
    cdf.seal();

    const auto p95 = parallelMap<double>(
        64,
        [&](size_t i) {
            const double q = static_cast<double>(i % 100) / 100.0;
            (void)cdf.fractionAtOrBelow(q);
            (void)cdf.min();
            (void)cdf.max();
            return cdf.quantile(0.95);
        },
        4);
    for (double v : p95)
        EXPECT_DOUBLE_EQ(v, cdf.quantile(0.95));
}

} // namespace
} // namespace dora
