/**
 * @file
 * Unit tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include "mem/cache_model.hh"

namespace dora
{
namespace
{

CacheConfig
tinyCache(uint32_t size_kb = 1, uint32_t ways = 2,
          uint32_t requestors = 1)
{
    CacheConfig c;
    c.name = "test";
    c.sizeBytes = size_kb * 1024ull;
    c.associativity = ways;
    c.lineBytes = 64;
    c.numRequestors = requestors;
    return c;
}

TEST(CacheModel, Geometry)
{
    CacheModel cache(tinyCache(2, 4));
    // 2 KB / 64 B = 32 lines / 4 ways = 8 sets.
    EXPECT_EQ(cache.numSets(), 8u);
}

TEST(CacheModel, FirstAccessMissesThenHits)
{
    CacheModel cache(tinyCache());
    EXPECT_FALSE(cache.access(100, 0));
    EXPECT_TRUE(cache.access(100, 0));
    EXPECT_TRUE(cache.access(100, 0));
    EXPECT_EQ(cache.stats(0).accesses, 3u);
    EXPECT_EQ(cache.stats(0).misses, 1u);
}

TEST(CacheModel, DistinctSetsDontConflict)
{
    CacheModel cache(tinyCache(1, 2));  // 8 sets
    // Lines 0..7 map to distinct sets.
    for (uint64_t line = 0; line < 8; ++line)
        EXPECT_FALSE(cache.access(line, 0));
    for (uint64_t line = 0; line < 8; ++line)
        EXPECT_TRUE(cache.access(line, 0));
}

TEST(CacheModel, LruEvictsLeastRecentlyUsed)
{
    CacheModel cache(tinyCache(1, 2));  // 8 sets, 2 ways
    // Three lines mapping to set 0: 0, 8, 16.
    cache.access(0, 0);
    cache.access(8, 0);
    cache.access(0, 0);   // 0 is now MRU
    cache.access(16, 0);  // evicts 8 (LRU)
    EXPECT_TRUE(cache.access(0, 0));
    EXPECT_TRUE(cache.access(16, 0));
    EXPECT_FALSE(cache.access(8, 0));  // was evicted
}

TEST(CacheModel, AssociativityHoldsConflictingLines)
{
    CacheModel cache(tinyCache(1, 4));  // 4 sets, 4 ways
    // Four lines in set 0 all fit.
    for (uint64_t i = 0; i < 4; ++i)
        cache.access(i * 4, 0);
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_TRUE(cache.access(i * 4, 0));
}

TEST(CacheModel, InterferenceEvictionAttribution)
{
    CacheModel cache(tinyCache(1, 2, 2));  // 8 sets, 2 ways, 2 requestors
    cache.access(0, 0);
    cache.access(8, 0);
    // Requestor 1 storms set 0 and evicts requestor 0's lines.
    cache.access(16, 1);
    cache.access(24, 1);
    EXPECT_EQ(cache.stats(0).interferenceEvictions, 2u);
    EXPECT_EQ(cache.stats(0).selfEvictions, 0u);
}

TEST(CacheModel, SelfEvictionAttribution)
{
    CacheModel cache(tinyCache(1, 2, 2));
    cache.access(0, 0);
    cache.access(8, 0);
    cache.access(16, 0);  // evicts own line
    EXPECT_EQ(cache.stats(0).selfEvictions, 1u);
    EXPECT_EQ(cache.stats(0).interferenceEvictions, 0u);
}

TEST(CacheModel, SharedHitTransfersOwnership)
{
    CacheModel cache(tinyCache(1, 2, 2));
    cache.access(0, 0);
    EXPECT_TRUE(cache.access(0, 1));  // hit on the other core's line
    // Now owned by requestor 1: eviction charged to it.
    cache.access(8, 0);
    cache.access(16, 0);  // evicts line 0 (LRU), owned by requestor 1
    EXPECT_EQ(cache.stats(1).interferenceEvictions, 1u);
}

TEST(CacheModel, TotalStatsAggregate)
{
    CacheModel cache(tinyCache(1, 2, 2));
    cache.access(0, 0);
    cache.access(1, 1);
    cache.access(0, 0);
    const CacheStats total = cache.totalStats();
    EXPECT_EQ(total.accesses, 3u);
    EXPECT_EQ(total.misses, 2u);
}

TEST(CacheModel, MissRateHelper)
{
    CacheStats st;
    EXPECT_DOUBLE_EQ(st.missRate(), 0.0);
    st.accesses = 4;
    st.misses = 1;
    EXPECT_DOUBLE_EQ(st.missRate(), 0.25);
}

TEST(CacheModel, FlushInvalidatesButKeepsStats)
{
    CacheModel cache(tinyCache());
    cache.access(5, 0);
    cache.flush();
    EXPECT_FALSE(cache.access(5, 0));
    EXPECT_EQ(cache.stats(0).accesses, 2u);
    EXPECT_EQ(cache.stats(0).misses, 2u);
}

TEST(CacheModelDeathTest, InvalidTagIsNotALineAddress)
{
    CacheModel cache(tinyCache());
    EXPECT_DEATH(cache.access(CacheModel::kInvalidTag, 0), "invalid tag");
    EXPECT_FALSE(cache.access(CacheModel::kInvalidTag - 1, 0));
    EXPECT_TRUE(cache.access(CacheModel::kInvalidTag - 1, 0));
}

TEST(CacheModel, ResetStatsKeepsContents)
{
    CacheModel cache(tinyCache());
    cache.access(5, 0);
    cache.resetStats();
    EXPECT_EQ(cache.stats(0).accesses, 0u);
    EXPECT_TRUE(cache.access(5, 0));  // still resident
}

TEST(CacheModel, OccupancyFraction)
{
    CacheModel cache(tinyCache(1, 2, 2));  // 16 lines capacity
    for (uint64_t i = 0; i < 4; ++i)
        cache.access(i, 0);
    for (uint64_t i = 4; i < 8; ++i)
        cache.access(i, 1);
    EXPECT_DOUBLE_EQ(cache.occupancyFraction(0), 4.0 / 16.0);
    EXPECT_DOUBLE_EQ(cache.occupancyFraction(1), 4.0 / 16.0);
}

TEST(CacheModel, OccupancyCounterMatchesScan)
{
    // Random multi-requestor traffic with ownership transfers,
    // evictions and a flush: the O(1) per-requestor occupancy counters
    // must agree with a full directory scan at every checkpoint.
    CacheModel cache(tinyCache(1, 2, 4));  // 16 lines, 4 requestors
    uint64_t state = 0x2545F4914F6CDD1Dull;
    auto next = [&state]() {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state;
    };
    auto check_all = [&cache](int step) {
        for (uint32_t r = 0; r < 4; ++r)
            ASSERT_DOUBLE_EQ(cache.occupancyFraction(r),
                             cache.occupancyFractionScan(r))
                << "requestor " << r << " at step " << step;
    };
    for (int step = 0; step < 2000; ++step) {
        cache.access(next() % 64, static_cast<uint32_t>(next() % 4));
        if (step % 37 == 0)
            check_all(step);
    }
    check_all(2000);
    cache.flush();
    for (uint32_t r = 0; r < 4; ++r) {
        EXPECT_DOUBLE_EQ(cache.occupancyFraction(r), 0.0);
        EXPECT_DOUBLE_EQ(cache.occupancyFractionScan(r), 0.0);
    }
}

/** Property sweep over geometries: hit rate of a resident set is 1. */
class CacheGeometrySweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{
};

TEST_P(CacheGeometrySweep, ResidentWorkingSetAlwaysHits)
{
    const auto [size_kb, ways] = GetParam();
    CacheModel cache(tinyCache(size_kb, ways));
    const uint64_t lines = size_kb * 1024ull / 64;
    // Touch exactly the capacity, round-robin across sets: fits.
    for (uint64_t i = 0; i < lines; ++i)
        cache.access(i, 0);
    for (uint64_t i = 0; i < lines; ++i)
        EXPECT_TRUE(cache.access(i, 0)) << "line " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Combine(::testing::Values(1u, 4u, 16u, 64u),
                       ::testing::Values(1u, 2u, 4u, 8u)));

} // namespace
} // namespace dora
