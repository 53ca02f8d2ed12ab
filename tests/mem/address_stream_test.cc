/**
 * @file
 * Unit tests for the synthetic address-stream generator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.hh"
#include "common/units.hh"
#include "mem/address_stream.hh"
#include "mem/cache_model.hh"

namespace dora
{
namespace
{

AddressStreamSpec
basicSpec()
{
    AddressStreamSpec spec;
    spec.workingSetBytes = 1 << 20;  // 16384 lines
    spec.hotFraction = 0.5;
    spec.hotSetFraction = 0.05;
    spec.burstContinueProb = 0.5;
    return spec;
}

TEST(AddressStream, StaysInsideWorkingSet)
{
    const AddressStreamSpec spec = basicSpec();
    const uint64_t base = 1000000;
    const uint64_t ws_lines = spec.workingSetBytes / kCacheLineBytes;
    AddressStream stream(spec, base, Rng(1));
    for (int i = 0; i < 100000; ++i) {
        const uint64_t line = stream.next();
        EXPECT_GE(line, base);
        EXPECT_LT(line, base + ws_lines);
    }
}

TEST(AddressStream, DeterministicForSameSeed)
{
    const AddressStreamSpec spec = basicSpec();
    AddressStream a(spec, 0, Rng(7));
    AddressStream b(spec, 0, Rng(7));
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(AddressStream, HotSetAbsorbsHotFraction)
{
    AddressStreamSpec spec = basicSpec();
    spec.hotFraction = 0.8;
    spec.hotSetFraction = 0.01;
    spec.burstContinueProb = 0.0;  // isolate the region choice
    const uint64_t ws_lines = spec.workingSetBytes / kCacheLineBytes;
    const uint64_t hot_lines = static_cast<uint64_t>(
        static_cast<double>(ws_lines) * spec.hotSetFraction);
    AddressStream stream(spec, 0, Rng(2));
    int hot = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (stream.next() < hot_lines)
            ++hot;
    // Hot draws land in the hot range; a few cold draws land there too.
    EXPECT_GT(static_cast<double>(hot) / n, 0.78);
}

TEST(AddressStream, BurstsAreSequential)
{
    AddressStreamSpec spec = basicSpec();
    spec.burstContinueProb = 0.95;
    spec.burstCap = 64;
    AddressStream stream(spec, 0, Rng(3));
    uint64_t prev = stream.next();
    int sequential = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const uint64_t cur = stream.next();
        if (cur == prev + 1)
            ++sequential;
        prev = cur;
    }
    // With p=0.95 the stream is overwhelmingly sequential.
    EXPECT_GT(static_cast<double>(sequential) / n, 0.85);
}

TEST(AddressStream, NoBurstsWhenDisabled)
{
    AddressStreamSpec spec = basicSpec();
    spec.burstContinueProb = 0.0;
    AddressStream stream(spec, 0, Rng(4));
    uint64_t prev = stream.next();
    int sequential = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const uint64_t cur = stream.next();
        if (cur == prev + 1)
            ++sequential;
        prev = cur;
    }
    EXPECT_LT(static_cast<double>(sequential) / n, 0.01);
}

TEST(AddressStream, ReshapeChangesWorkingSet)
{
    AddressStreamSpec spec = basicSpec();
    AddressStream stream(spec, 0, Rng(5));
    AddressStreamSpec small = spec;
    small.workingSetBytes = 64 * kCacheLineBytes;
    stream.reshape(small);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(stream.next(), 64u);
}

TEST(AddressStream, CoversWorkingSetEventually)
{
    AddressStreamSpec spec;
    spec.workingSetBytes = 256 * kCacheLineBytes;
    spec.hotFraction = 0.0;
    spec.hotSetFraction = 0.1;
    spec.burstContinueProb = 0.0;
    AddressStream stream(spec, 0, Rng(6));
    std::map<uint64_t, int> seen;
    for (int i = 0; i < 20000; ++i)
        ++seen[stream.next()];
    EXPECT_EQ(seen.size(), 256u);
}

TEST(AddressStream, WrapStaysInRangeUnderHeavyBursting)
{
    // Tiny working set + near-certain burst continuation: the cursor
    // wraps constantly, exercising the conditional-wrap fast path that
    // replaced the per-access modulo.
    AddressStreamSpec spec;
    spec.workingSetBytes = 16 * kCacheLineBytes;
    spec.hotFraction = 0.3;
    spec.hotSetFraction = 0.25;
    spec.burstContinueProb = 0.99;
    spec.burstCap = 64;
    const uint64_t base = 5000;
    AddressStream stream(spec, base, Rng(21));
    uint64_t prev = stream.next();
    int wraps = 0;
    for (int i = 0; i < 50000; ++i) {
        const uint64_t cur = stream.next();
        ASSERT_GE(cur, base);
        ASSERT_LT(cur, base + 16);
        // Within a burst the only legal discontinuity is the wrap to
        // the base line from the last line of the working set.
        if (cur < prev && cur == base && prev == base + 15)
            ++wraps;
        prev = cur;
    }
    EXPECT_GT(wraps, 100);  // the wrap path actually ran
}

TEST(AddressStream, StreamIdentityAndGenerations)
{
    const AddressStreamSpec spec = basicSpec();
    AddressStream a(spec, 0, Rng(22));
    AddressStream b(spec, 0, Rng(22));
    // Ids are process-unique even for identically-built streams.
    EXPECT_NE(a.streamId(), b.streamId());
    EXPECT_EQ(a.generation(), 0u);
    const uint64_t id = a.streamId();
    a.reshape(spec);
    EXPECT_EQ(a.streamId(), id);  // identity survives reshape
    EXPECT_EQ(a.generation(), 1u);
    a.reshape(spec);
    EXPECT_EQ(a.generation(), 2u);
}

TEST(AddressStreamDeathTest, ReshapeRejectsInvalidSpecs)
{
    AddressStream stream(basicSpec(), 0, Rng(30));
    const double nan = std::nan("");
    AddressStreamSpec spec = basicSpec();
    for (double bad : {nan, -0.1, 1.5}) {
        spec = basicSpec();
        spec.hotFraction = bad;
        EXPECT_DEATH(stream.reshape(spec), "hotFraction");
        spec = basicSpec();
        spec.burstContinueProb = bad;
        EXPECT_DEATH(stream.reshape(spec), "burstContinueProb");
    }
    spec = basicSpec();
    spec.hotSetFraction = nan;
    EXPECT_DEATH(stream.reshape(spec), "hotSetFraction");
    spec = basicSpec();
    spec.burstCap = 0;
    EXPECT_DEATH(stream.reshape(spec), "burstCap");
    // The construction path validates through reshape() too.
    EXPECT_DEATH(AddressStream(spec, 0, Rng(30)), "burstCap");
    // The range edges stay legal.
    spec = basicSpec();
    spec.hotFraction = 1.0;
    spec.burstContinueProb = 0.0;
    spec.burstCap = 1;
    stream.reshape(spec);
    spec.hotFraction = -0.0;
    spec.burstContinueProb = 1.0;
    stream.reshape(spec);
}

TEST(AddressStreamDeathTest, LinesMustStayBelowTheInvalidTag)
{
    const AddressStreamSpec spec = basicSpec();
    const uint64_t ws_lines = spec.workingSetBytes / kCacheLineBytes;
    EXPECT_DEATH(AddressStream(spec, CacheModel::kInvalidTag - ws_lines + 1,
                               Rng(31)),
                 "invalid tag");
    // One line lower the top line is kInvalidTag - 1: legal.
    AddressStream top(spec, CacheModel::kInvalidTag - ws_lines, Rng(31));
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(top.next(), CacheModel::kInvalidTag);
    // A reshape that grows the working set past the tag panics too.
    AddressStreamSpec bigger = spec;
    bigger.workingSetBytes *= 2;
    EXPECT_DEATH(top.reshape(bigger), "invalid tag");
}

/** Property sweep: every spec shape keeps addresses in range. */
class AddressStreamSpecSweep
    : public ::testing::TestWithParam<std::tuple<double, double, double>>
{
};

TEST_P(AddressStreamSpecSweep, AddressesAlwaysInRange)
{
    const auto [hot, hot_set, burst] = GetParam();
    AddressStreamSpec spec;
    spec.workingSetBytes = 512 * 1024;
    spec.hotFraction = hot;
    spec.hotSetFraction = hot_set;
    spec.burstContinueProb = burst;
    const uint64_t ws_lines = spec.workingSetBytes / kCacheLineBytes;
    AddressStream stream(spec, 777, Rng(hashLabel("sweep")));
    for (int i = 0; i < 20000; ++i) {
        const uint64_t line = stream.next();
        EXPECT_GE(line, 777u);
        EXPECT_LT(line, 777u + ws_lines);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AddressStreamSpecSweep,
    ::testing::Combine(::testing::Values(0.0, 0.5, 0.95),
                       ::testing::Values(0.001, 0.05, 1.0),
                       ::testing::Values(0.0, 0.5, 0.97)));

} // namespace
} // namespace dora
