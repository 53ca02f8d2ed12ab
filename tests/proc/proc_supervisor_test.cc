/**
 * @file
 * Supervisor robustness-ladder tests: crash retry, hang watchdog,
 * quarantine, graceful drain, journal resume. Crash injection uses
 * marker files in TempDir so a unit misbehaves on exactly its first
 * attempt (attempts land in different worker processes, so in-memory
 * state cannot carry the "already failed once" bit).
 */

#include "exec/proc/supervisor.hh"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include <sys/time.h>
#include <unistd.h>

namespace dora
{
namespace
{

std::string
expectedPayload(uint64_t unit)
{
    return "unit:" + std::to_string(unit * unit + 17);
}

class ProcSupervisorTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        stem_ = ::testing::TempDir() + "proc_sup_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name();
        journal_ = stem_ + ".jrn";
        marker_ = stem_ + ".marker";
        std::remove(journal_.c_str());
        std::remove(marker_.c_str());
    }

    void TearDown() override
    {
        std::remove(journal_.c_str());
        std::remove(marker_.c_str());
    }

    /** True the first time it is called (per marker file). */
    bool firstAttempt() const
    {
        if (std::ifstream(marker_).good())
            return false;
        std::ofstream(marker_).put('x');
        return true;
    }

    static ProcSweepConfig fastConfig(uint32_t workers)
    {
        ProcSweepConfig config;
        config.workers = workers;
        config.heartbeatIntervalSec = 0.05;
        config.retryBackoffSec = 0.01;
        return config;
    }

    /**
     * runProcSweep() that records every payload its completion hook
     * hands out (the only way the supervisor delivers results) into
     * payloads_, keyed by unit.
     */
    ProcSweepReport sweep(ProcSweepConfig config, uint64_t n,
                          const ProcUnitFn &unit_fn)
    {
        payloads_.clear();
        config.onUnitComplete = [this](uint64_t unit,
                                       const std::string &payload) {
            EXPECT_TRUE(payloads_.emplace(unit, payload).second)
                << "unit " << unit << " delivered twice";
        };
        return runProcSweep(config, n, unit_fn);
    }

    void expectAllCorrect(const ProcSweepReport &report, uint64_t n)
    {
        ASSERT_TRUE(report.allCompleted());
        ASSERT_EQ(payloads_.size(), n);
        for (uint64_t u = 0; u < n; ++u)
            EXPECT_EQ(payloads_[u], expectedPayload(u)) << "unit " << u;
    }

    std::string stem_, journal_, marker_;
    std::map<uint64_t, std::string> payloads_;
};

TEST_F(ProcSupervisorTest, HealthySweepCompletesEveryUnit)
{
    for (const uint32_t workers : {1u, 4u}) {
        const ProcSweepReport report = sweep(
            fastConfig(workers), 9, expectedPayload);
        expectAllCorrect(report, 9);
        EXPECT_EQ(report.unitsRun, 9u);
        EXPECT_EQ(report.workerCrashes, 0u);
        EXPECT_EQ(report.retries, 0u);
        EXPECT_FALSE(report.drained);
    }
}

TEST_F(ProcSupervisorTest, ZeroUnitsIsANoop)
{
    const ProcSweepReport report =
        sweep(fastConfig(2), 0, expectedPayload);
    EXPECT_TRUE(report.allCompleted());
    EXPECT_EQ(report.unitsRun, 0u);
}

TEST_F(ProcSupervisorTest, CrashedWorkerIsRespawnedAndUnitRetried)
{
    const ProcUnitFn unit_fn = [this](uint64_t unit) {
        if (unit == 3 && firstAttempt())
            ::_exit(9);  // simulated crash mid-unit
        return expectedPayload(unit);
    };
    const ProcSweepReport report =
        sweep(fastConfig(2), 6, unit_fn);
    expectAllCorrect(report, 6);
    EXPECT_GE(report.workerCrashes, 1u);
    EXPECT_GE(report.retries, 1u);
    EXPECT_TRUE(report.quarantined.empty());
}

TEST_F(ProcSupervisorTest, ThrowingUnitIsRetriedWithoutACrash)
{
    const ProcUnitFn unit_fn = [this](uint64_t unit) -> std::string {
        if (unit == 1 && firstAttempt())
            throw std::runtime_error("transient unit failure");
        return expectedPayload(unit);
    };
    const ProcSweepReport report =
        sweep(fastConfig(1), 4, unit_fn);
    expectAllCorrect(report, 4);
    EXPECT_EQ(report.workerCrashes, 0u);  // worker survived the throw
    EXPECT_GE(report.retries, 1u);
}

TEST_F(ProcSupervisorTest, HungWorkerIsKilledByHeartbeatWatchdog)
{
    const ProcUnitFn unit_fn = [this](uint64_t unit) {
        if (unit == 2 && firstAttempt())
            ::kill(::getpid(), SIGSTOP);  // freezes heartbeats too
        return expectedPayload(unit);
    };
    ProcSweepConfig config = fastConfig(1);
    config.heartbeatTimeoutSec = 0.3;
    const ProcSweepReport report = sweep(config, 4, unit_fn);
    expectAllCorrect(report, 4);
    EXPECT_GE(report.workerCrashes, 1u);
    EXPECT_GE(report.retries, 1u);
}

TEST_F(ProcSupervisorTest, SlowUnitIsKilledByUnitTimeout)
{
    const ProcUnitFn unit_fn = [this](uint64_t unit) {
        if (unit == 0 && firstAttempt())
            std::this_thread::sleep_for(std::chrono::seconds(30));
        return expectedPayload(unit);
    };
    ProcSweepConfig config = fastConfig(1);
    config.unitTimeoutSec = 0.4;
    const ProcSweepReport report = sweep(config, 3, unit_fn);
    expectAllCorrect(report, 3);
    EXPECT_GE(report.workerCrashes, 1u);
}

TEST_F(ProcSupervisorTest, PoisonUnitIsQuarantinedNotFatal)
{
    const ProcUnitFn unit_fn = [](uint64_t unit) {
        if (unit == 2)
            ::_exit(7);  // poison: dies on every attempt
        return expectedPayload(unit);
    };
    ProcSweepConfig config = fastConfig(2);
    config.maxAttempts = 2;
    const ProcSweepReport report = sweep(config, 5, unit_fn);
    EXPECT_FALSE(report.allCompleted());
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0].unit, 2u);
    EXPECT_EQ(report.quarantined[0].attempts, 2u);
    EXPECT_FALSE(report.quarantined[0].lastError.empty());
    for (uint64_t u = 0; u < 5; ++u) {
        if (u == 2)
            continue;
        EXPECT_TRUE(report.completed[u]) << "unit " << u;
        EXPECT_EQ(payloads_[u], expectedPayload(u));
    }
}

TEST_F(ProcSupervisorTest, JournalResumeSkipsCompletedUnits)
{
    // First campaign: unit 4 is poison with maxAttempts=1, so the
    // sweep ends with everything but unit 4 journaled.
    const ProcUnitFn poison_fn = [](uint64_t unit) {
        if (unit == 4)
            ::_exit(5);
        return expectedPayload(unit);
    };
    ProcSweepConfig config = fastConfig(2);
    config.maxAttempts = 1;
    config.journalPath = journal_;
    config.campaignHash = 0xfeedbeef;
    const ProcSweepReport first = sweep(config, 6, poison_fn);
    EXPECT_EQ(first.quarantined.size(), 1u);
    EXPECT_EQ(first.unitsRun, 5u);

    // Second campaign over the same journal: only unit 4 runs; the
    // counter proves the other five came from the journal.
    const ProcSweepReport second =
        sweep(config, 6, expectedPayload);
    expectAllCorrect(second, 6);
    EXPECT_EQ(second.unitsResumed, 5u);
    EXPECT_EQ(second.unitsRun, 1u);

    // Third open: fully resumed, zero work.
    const ProcSweepReport third = sweep(
        config, 6,
        [](uint64_t) -> std::string { ::abort(); });
    expectAllCorrect(third, 6);
    EXPECT_EQ(third.unitsResumed, 6u);
    EXPECT_EQ(third.unitsRun, 0u);
}

TEST_F(ProcSupervisorTest, SigintDrainsInFlightAndJournalsProgress)
{
    const ProcUnitFn slow_fn = [](uint64_t unit) {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        return expectedPayload(unit);
    };
    ProcSweepConfig config = fastConfig(1);
    config.journalPath = journal_;
    config.campaignHash = 0xd5a1;

    // A one-shot timer rather than a thread sends the SIGINT: the
    // supervisor must fork its workers from a single-threaded process
    // (ThreadSanitizer kills workers forked from a multi-threaded one).
    struct sigaction interrupt = {};
    interrupt.sa_handler = [](int) { ::kill(::getpid(), SIGINT); };
    struct sigaction previous = {};
    ASSERT_EQ(::sigaction(SIGALRM, &interrupt, &previous), 0);
    itimerval timer = {};
    timer.it_value.tv_usec = 400000;
    ASSERT_EQ(::setitimer(ITIMER_REAL, &timer, nullptr), 0);
    const ProcSweepReport drained =
        sweep(config, 20, slow_fn);
    ::sigaction(SIGALRM, &previous, nullptr);

    EXPECT_TRUE(drained.drained);
    EXPECT_EQ(drained.drainSignal, SIGINT);
    EXPECT_FALSE(drained.allCompleted());
    EXPECT_GE(drained.unitsRun, 1u);

    // Resume finishes the campaign; drained units are not recomputed.
    const ProcSweepReport resumed =
        sweep(config, 20, slow_fn);
    expectAllCorrect(resumed, 20);
    EXPECT_EQ(resumed.unitsResumed, drained.unitsRun);
    EXPECT_EQ(resumed.unitsRun, 20u - drained.unitsRun);
}

} // namespace
} // namespace dora
