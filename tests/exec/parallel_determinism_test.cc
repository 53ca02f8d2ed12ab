/**
 * @file
 * End-to-end determinism of the parallel experiment engine: the same
 * comparison run through the harness at jobs=1 and jobs=4 must produce
 * RunMeasurement vectors bit-identical to a plain loop of
 * ExperimentRunner::run() on one runner (the runOne() path, which the
 * cell executor does not run) — including when a non-zero
 * fault-injection schedule is active on the signal path.
 *
 * Identity is checked through runMeasurementText(), which renders
 * every double as a hex float, so any single-ULP divergence fails.
 *
 * The offline-opt suites also sweep paged workloads on a cheap config
 * where offlineOptMany() cuts losing cells at the deadline, and check
 * its winners against full runAtFrequency() sweeps.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "browser/page_corpus.hh"
#include "common/exact_ticks.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_schedule.hh"
#include "harness/comparison.hh"
#include "obs/metrics.hh"
#include "workloads/kernel.hh"

namespace dora
{
namespace
{

/** Three cheap kernel-only workloads (no page => short 1 s windows). */
std::vector<WorkloadSpec>
cheapWorkloads()
{
    return {
        WorkloadSets::kernelOnly(KernelCatalog::byName("kmeans")),
        WorkloadSets::kernelOnly(KernelCatalog::byName("srad2")),
        WorkloadSets::kernelOnly(KernelCatalog::byName("backprop")),
    };
}

/** Model-free governors so no training campaign is needed. */
const std::vector<std::string> kGovernors = {"interactive", "ondemand"};

std::vector<std::string>
comparisonTexts(unsigned jobs, FaultInjector *injector)
{
    ComparisonHarness harness(ExperimentConfig{}, nullptr, jobs);
    if (injector)
        harness.runner().setFaultInjector(injector);
    const auto records = harness.runAll(cheapWorkloads(), kGovernors);
    std::vector<std::string> texts;
    for (const auto &r : records)
        for (const auto &g : kGovernors)
            texts.push_back(runMeasurementText(r.measurement(g)));
    return texts;
}

/** The reference: every cell run in turn on one runner. */
std::vector<std::string>
loopTexts(FaultInjector *injector)
{
    ExperimentRunner runner;
    runner.setFaultInjector(injector);
    std::vector<std::string> texts;
    for (const auto &w : cheapWorkloads())
        for (const auto &g : kGovernors)
            texts.push_back(runMeasurementText(
                runner.run(w, *makeNamedGovernor(g, nullptr))));
    return texts;
}

/** Restore the process-wide adaptive default on scope exit. */
struct ModeGuard
{
    ~ModeGuard() { setExactTicksMode(false); }
};

/**
 * A cheap paged config: short warmup and windows, a 1.5 s load wall,
 * and a 0.5 s deadline that alipay misses at OPPs 0-2 and 360 with a
 * co-runner at OPPs 0-9, so offlineOptMany() cuts those cells.
 */
ExperimentConfig
cutConfig(double deadline_sec = 0.5)
{
    ExperimentConfig config;
    config.warmupSec = 0.1;
    config.maxLoadSec = 1.5;
    config.measureSec = 0.1;
    config.deadlineSec = deadline_sec;
    return config;
}

/** Two paged workloads and a page-less one, which is never cut. */
std::vector<WorkloadSpec>
pagedWorkloads()
{
    return {
        WorkloadSets::alone(PageCorpus::byName("alipay")),
        WorkloadSets::combo(PageCorpus::byName("360"), MemIntensity::High),
        WorkloadSets::kernelOnly(KernelCatalog::byName("kmeans")),
    };
}

/**
 * Offline-opt reference: full runAtFrequency() sweeps on one runner,
 * so nothing is cut.
 */
std::vector<std::vector<RunMeasurement>>
fullSweeps(const ExperimentConfig &config,
           const std::vector<WorkloadSpec> &workloads)
{
    ExperimentRunner runner(config);
    std::vector<std::vector<RunMeasurement>> sweeps;
    for (const auto &w : workloads) {
        sweeps.emplace_back();
        for (size_t f = 0; f < runner.freqTable().size(); ++f)
            sweeps.back().push_back(runner.runAtFrequency(w, f));
    }
    return sweeps;
}

/** Winners the cut sweep must reproduce. */
std::vector<std::string>
fullSweepWinners(const ExperimentConfig &config,
                 const std::vector<std::vector<RunMeasurement>> &sweeps)
{
    ComparisonHarness picker(config, nullptr, 1);
    std::vector<std::string> texts;
    for (const auto &sweep : sweeps)
        texts.push_back(runMeasurementText(picker.pickOfflineOpt(sweep)));
    return texts;
}

/**
 * Cells the cut sweep must leave unfinished: page cells below the max
 * OPP whose full run did not finish within deadline + 2 dt (none when
 * that wall is not finite or not below maxLoadSec).
 */
uint64_t
expectedCut(const ExperimentConfig &config,
            const std::vector<WorkloadSpec> &workloads,
            const std::vector<std::vector<RunMeasurement>> &sweeps)
{
    const double wall = config.deadlineSec + 2.0 * config.dtSec;
    if (!std::isfinite(wall) || !(wall < config.maxLoadSec))
        return 0;
    uint64_t cut = 0;
    for (size_t w = 0; w < workloads.size(); ++w)
        for (size_t f = 0; f + 1 < sweeps[w].size(); ++f)
            if (workloads[w].page != nullptr &&
                (!sweeps[w][f].pageFinished ||
                 sweeps[w][f].loadTimeSec > wall))
                ++cut;
    return cut;
}

uint64_t
cellsCut()
{
    return MetricsRegistry::global()
        .counter("harness.offline_cells_cut")
        .value();
}

/**
 * offlineOptMany() at jobs 1 and 4 and on 2 workers must pick the
 * winners of the full @p sweeps and count exactly the cells the cut
 * left unfinished. Returns that count.
 */
uint64_t
expectCutMatchesFullSweep(
    const ExperimentConfig &config,
    const std::vector<WorkloadSpec> &workloads,
    const std::vector<std::vector<RunMeasurement>> &sweeps,
    const char *what)
{
    const auto want = fullSweepWinners(config, sweeps);
    const uint64_t want_cut = expectedCut(config, workloads, sweeps);
    for (const auto &[jobs, workers] :
         {std::pair{1u, 0u}, std::pair{4u, 0u}, std::pair{1u, 2u}}) {
        ComparisonHarness harness(config, nullptr, jobs);
        harness.setWorkers(workers);
        const uint64_t before = cellsCut();
        const auto winners = harness.offlineOptMany(workloads);
        EXPECT_EQ(cellsCut() - before, want_cut)
            << what << " jobs=" << jobs << " workers=" << workers;
        EXPECT_EQ(winners.size(), want.size()) << what;
        for (size_t w = 0; w < want.size() && w < winners.size(); ++w)
            EXPECT_EQ(want[w], runMeasurementText(winners[w]))
                << what << " jobs=" << jobs << " workers=" << workers
                << " workload " << w;
    }
    return want_cut;
}

void
expectSameTexts(const std::vector<std::string> &want,
                const std::vector<std::string> &got, const char *what)
{
    ASSERT_EQ(want.size(), got.size()) << what;
    for (size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(want[i], got[i]) << what << " cell " << i;
}

TEST(ParallelDeterminism, FaultFreeComparisonBitIdentical)
{
    const auto reference = loopTexts(nullptr);
    expectSameTexts(reference, comparisonTexts(1, nullptr), "jobs=1");
    expectSameTexts(reference, comparisonTexts(4, nullptr), "jobs=4");
}

TEST(ParallelDeterminism, FaultedComparisonBitIdentical)
{
    // A non-trivial schedule: sensor + actuator + thermal faults all
    // active. The harness clones the schedule into per-job injectors;
    // because injectors reset their deterministic stream at the start
    // of every run, the clones must reproduce the serial measurements
    // exactly.
    const FaultSchedule schedule = FaultSchedule::combined(1234);
    FaultInjector serial_injector(schedule);
    FaultInjector parallel_injector(schedule);

    const auto serial = loopTexts(&serial_injector);
    expectSameTexts(serial, comparisonTexts(1, &parallel_injector),
                    "jobs=1");
    expectSameTexts(serial, comparisonTexts(4, &parallel_injector),
                    "jobs=4");

    // The schedule must actually have fired: a faulted interactive run
    // differs from the fault-free one (otherwise this test would be
    // vacuous).
    const auto clean = loopTexts(nullptr);
    bool any_difference = false;
    for (size_t i = 0; i < serial.size(); ++i)
        any_difference = any_difference || serial[i] != clean[i];
    EXPECT_TRUE(any_difference)
        << "combined fault schedule was a no-op on every cell";
}

TEST(ParallelDeterminism, OfflineOptBitIdenticalAndOrderInvariant)
{
    const auto workloads = cheapWorkloads();
    const ExperimentConfig config;
    ComparisonHarness serial(config, nullptr, 1);
    ComparisonHarness parallel(config, nullptr, 4);

    const auto want = fullSweepWinners(config, fullSweeps(config, workloads));
    EXPECT_EQ(want[0], runMeasurementText(serial.offlineOpt(workloads[0])));
    EXPECT_EQ(want[0],
              runMeasurementText(parallel.offlineOpt(workloads[0])));

    // offlineOptMany must match per-workload sweeps exactly.
    const auto many = parallel.offlineOptMany(workloads);
    ASSERT_EQ(many.size(), workloads.size());
    for (size_t w = 0; w < workloads.size(); ++w)
        EXPECT_EQ(runMeasurementText(many[w]), want[w]);
}

TEST(ParallelDeterminism, OfflineOptCutPicksFullSweepWinners)
{
    ModeGuard guard;
    for (bool exact : {false, true}) {
        setExactTicksMode(exact);
        const ExperimentConfig config = cutConfig();
        const auto workloads = pagedWorkloads();
        const auto sweeps = fullSweeps(config, workloads);
        // Not vacuous: on both pages a non-max OPP wins, inside the cut
        // window, while several slower OPPs are cut.
        ComparisonHarness picker(config, nullptr, 1);
        for (size_t w = 0; w < 2; ++w) {
            const RunMeasurement best = picker.pickOfflineOpt(sweeps[w]);
            EXPECT_TRUE(best.meetsDeadline) << "workload " << w;
            EXPECT_LT(best.meanFreqMhz, sweeps[w].back().meanFreqMhz - 1.0)
                << "workload " << w;
        }
        EXPECT_GE(expectCutMatchesFullSweep(config, workloads, sweeps,
                                            exact ? "exact" : "adaptive"),
                  4u);
    }
}

TEST(ParallelDeterminism, OfflineOptCutEdges)
{
    ModeGuard guard;
    const std::vector<WorkloadSpec> alipay = {pagedWorkloads()[0]};
    const auto check = [&](double deadline_sec, const char *mode) {
        const ExperimentConfig config = cutConfig(deadline_sec);
        return expectCutMatchesFullSweep(config, alipay,
                                         fullSweeps(config, alipay), mode);
    };
    const auto sweep = fullSweeps(cutConfig(), alipay).front();

    // A deadline equal to a non-max OPP's measured load time: that OPP
    // meets it exactly and must still finish inside the cut window, in
    // exact mode and in adaptive mode, where the cut moves the last
    // fast-forward horizon. Alipay first meets 0.5 s at OPP 3.
    size_t f = 0;
    while (f + 1 < sweep.size() && !sweep[f].meetsDeadline)
        ++f;
    ASSERT_GT(f, 0u);
    ASSERT_LT(f + 1, sweep.size());
    for (bool exact : {false, true}) {
        setExactTicksMode(exact);
        const char *mode = exact ? "exact" : "adaptive";
        EXPECT_EQ(check(sweep[f].loadTimeSec, mode), f)
            << mode << ": deadline = load time at OPP " << f;
    }
    setExactTicksMode(false);

    // Nothing meets a deadline <= 0: every non-max cell is cut (at -1 s
    // its window is empty) and the uncut max-OPP run is the fallback.
    EXPECT_EQ(check(0.0, "deadline 0"), sweep.size() - 1);
    EXPECT_EQ(check(-1.0, "deadline -1"), sweep.size() - 1);
    // No finite cut wall, or none below maxLoadSec: nothing is cut.
    EXPECT_EQ(check(std::numeric_limits<double>::quiet_NaN(), "NaN"), 0u);
    EXPECT_EQ(check(cutConfig().maxLoadSec, "deadline = wall"), 0u);
}

TEST(ParallelDeterminism, DigestMatchesTextEquality)
{
    RunMeasurement a;
    a.workload = "w";
    a.ppw = 0.25;
    RunMeasurement b = a;
    EXPECT_EQ(runMeasurementDigest(a), runMeasurementDigest(b));
    // A single-ULP change must change the digest.
    b.ppw = std::nextafter(b.ppw, 1.0);
    EXPECT_NE(runMeasurementDigest(a), runMeasurementDigest(b));
}

} // namespace
} // namespace dora
