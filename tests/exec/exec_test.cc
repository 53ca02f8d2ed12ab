/**
 * @file
 * Unit tests for the parallel execution primitives: deterministic
 * result ordering, exception propagation, job-count resolution, and
 * inline execution at one job.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/thread_pool.hh"

namespace dora
{
namespace
{

TEST(JobCount, HardwareJobsIsPositive)
{
    EXPECT_GE(hardwareJobs(), 1u);
}

TEST(JobCount, EnvOverridesDefault)
{
    ::setenv("DORA_JOBS", "3", 1);
    EXPECT_EQ(defaultJobCount(), 3u);
    ::setenv("DORA_JOBS", "1", 1);
    EXPECT_EQ(defaultJobCount(), 1u);
    ::unsetenv("DORA_JOBS");
    EXPECT_EQ(defaultJobCount(), hardwareJobs());
}

TEST(JobCount, GarbageEnvFallsBack)
{
    // $DORA_JOBS is as strict as --jobs: garbage no longer falls back
    // to the hardware thread count, it is fatal.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *value : {"banana", "0", "-4"}) {
        ::setenv("DORA_JOBS", value, 1);
        EXPECT_EXIT(defaultJobCount(), ::testing::ExitedWithCode(1),
                    "\\$DORA_JOBS")
            << value;
    }
    ::unsetenv("DORA_JOBS");
}

TEST(JobCount, ArgsFlagWins)
{
    ::setenv("DORA_JOBS", "2", 1);
    const char *argv1[] = {"bench", "--jobs", "5"};
    EXPECT_EQ(jobCountFromArgs(3, const_cast<char **>(argv1)), 5u);
    const char *argv2[] = {"bench", "--jobs=7"};
    EXPECT_EQ(jobCountFromArgs(2, const_cast<char **>(argv2)), 7u);
    const char *argv3[] = {"bench"};
    EXPECT_EQ(jobCountFromArgs(1, const_cast<char **>(argv3)), 2u);
    ::unsetenv("DORA_JOBS");
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        constexpr size_t kN = 257;
        std::vector<std::atomic<int>> hits(kN);
        parallelFor(
            kN, [&hits](size_t i) { hits[i].fetch_add(1); }, jobs);
        for (size_t i = 0; i < kN; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with "
                                         << jobs << " jobs";
    }
}

TEST(ParallelFor, ZeroAndOneElementDegenerate)
{
    int calls = 0;
    parallelFor(0, [&calls](size_t) { ++calls; }, 4);
    EXPECT_EQ(calls, 0);
    parallelFor(1, [&calls](size_t) { ++calls; }, 4);
    EXPECT_EQ(calls, 1);
}

TEST(ParallelMap, ResultsInIndexOrderAtAnyJobCount)
{
    constexpr size_t kN = 100;
    for (unsigned jobs : {1u, 3u, 4u, 16u}) {
        const auto out = parallelMap<size_t>(
            kN, [](size_t i) { return i * i; }, jobs);
        ASSERT_EQ(out.size(), kN);
        for (size_t i = 0; i < kN; ++i)
            EXPECT_EQ(out[i], i * i);
    }
}

TEST(ParallelMap, MatchesSerialReference)
{
    constexpr size_t kN = 64;
    const auto serial = parallelMap<double>(
        kN, [](size_t i) { return 1.0 / (1.0 + static_cast<double>(i)); },
        1);
    const auto parallel = parallelMap<double>(
        kN, [](size_t i) { return 1.0 / (1.0 + static_cast<double>(i)); },
        4);
    EXPECT_EQ(serial, parallel);  // bit-identical doubles
}

TEST(ParallelFor, LowestIndexExceptionWins)
{
    for (unsigned jobs : {1u, 4u}) {
        try {
            parallelFor(
                100,
                [](size_t i) {
                    if (i == 17 || i == 63 || i == 99)
                        throw std::runtime_error(
                            "boom " + std::to_string(i));
                },
                jobs);
            FAIL() << "expected an exception with " << jobs << " jobs";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom 17");
        }
    }
}

TEST(ParallelFor, EveryIndexAttemptedDespiteException)
{
    std::vector<std::atomic<int>> hits(50);
    try {
        parallelFor(
            50,
            [&hits](size_t i) {
                hits[i].fetch_add(1);
                if (i == 0)
                    throw std::runtime_error("early");
            },
            4);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &) {
    }
    int total = 0;
    for (auto &h : hits)
        total += h.load();
    EXPECT_EQ(total, 50);
}

TEST(ParallelFor, SingleJobRunsInline)
{
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(8);
    parallelFor(
        8, [&seen](size_t i) { seen[i] = std::this_thread::get_id(); },
        1);
    for (const auto &id : seen)
        EXPECT_EQ(id, caller);
}

} // namespace
} // namespace dora
