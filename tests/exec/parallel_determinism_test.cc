/**
 * @file
 * End-to-end determinism of the parallel experiment engine: the same
 * comparison run through the harness at jobs=1, at jobs=4 and on 2
 * worker processes must produce RunMeasurement vectors bit-identical
 * to a plain loop of ExperimentRunner::run() on one runner (the
 * runOne() path, which the cell executor does not run) — in adaptive
 * and exact-ticks mode, each with and without a non-zero
 * fault-injection schedule on the signal path. The trainer's
 * measurement campaign must likewise match runAtFrequency() at jobs 1
 * and 4.
 *
 * Identity is checked through runMeasurementText(), which renders
 * every double as a hex float, so any single-ULP divergence fails.
 *
 * The offline-opt suites also sweep paged workloads on a cheap config
 * where offlineOptMany() cuts losing cells at the deadline, and check
 * its winners against full runAtFrequency() sweeps, with and without
 * faults, and the cells it skips on their load-time floor against a
 * count of their own. The OfflineOptFloor suite checks that floor
 * against finished loads, and the early end against full runs.
 *
 * The LaneBatch suite runs the same grids on harnesses whose lane stub
 * is set to 1, the one width left (ComparisonHarness::setLanes, which
 * benchmark/rounds.cc sets), and goes with that stub.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "browser/page_corpus.hh"
#include "common/exact_ticks.hh"
#include "dora/features.hh"
#include "dora/trainer.hh"
#include "exec/thread_pool.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_schedule.hh"
#include "harness/comparison.hh"
#include "obs/metrics.hh"
#include "runner/run_context.hh"
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

/** One execution tier of the cell executor. */
struct Tier
{
    unsigned jobs = 1;
    unsigned workers = 0;

    std::string name() const
    {
        return "jobs=" + std::to_string(jobs) +
            " workers=" + std::to_string(workers);
    }
};

/** The tiers every identity check runs: serial, threads, processes. */
const Tier kTiers[] = {{1, 0}, {4, 0}, {1, 2}};

/** @p lane_stub sets the harness's inert lane stub to 1 first. */
std::vector<std::string>
comparisonTexts(const Tier &tier, FaultInjector *injector,
                const std::vector<std::string> &governors = kGovernors,
                bool lane_stub = false)
{
    ComparisonHarness harness(ExperimentConfig{}, nullptr, tier.jobs);
    harness.setWorkers(tier.workers);
    if (lane_stub)
        harness.setLanes(1);
    if (injector)
        harness.runner().setFaultInjector(injector);
    const auto records = harness.runAll(cheapWorkloads(), governors);
    std::vector<std::string> texts;
    for (const auto &r : records)
        for (const auto &g : governors)
            texts.push_back(runMeasurementText(r.measurement(g)));
    return texts;
}

/** The reference: every cell run in turn on one runner. */
std::vector<std::string>
loopTexts(FaultInjector *injector,
          const std::vector<std::string> &governors = kGovernors)
{
    ExperimentRunner runner;
    runner.setFaultInjector(injector);
    std::vector<std::string> texts;
    for (const auto &w : cheapWorkloads())
        for (const auto &g : governors)
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
 * so nothing is cut, under @p injector's faults when it is not null.
 */
std::vector<std::vector<RunMeasurement>>
fullSweeps(const ExperimentConfig &config,
           const std::vector<WorkloadSpec> &workloads,
           FaultInjector *injector = nullptr)
{
    ExperimentRunner runner(config);
    runner.setFaultInjector(injector);
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
 * The load wall of page cells below the max OPP in a cut sweep:
 * deadline + 2 dt, or nothing when that is not finite or not below
 * maxLoadSec.
 */
std::optional<double>
cutWall(const ExperimentConfig &config)
{
    const double wall = config.deadlineSec + 2.0 * config.dtSec;
    if (!std::isfinite(wall) || !(wall < config.maxLoadSec))
        return std::nullopt;
    return wall;
}

/**
 * Cells the cut sweep must leave unfinished: page cells below the max
 * OPP whose full run did not finish within the cut wall.
 */
uint64_t
expectedCut(const ExperimentConfig &config,
            const std::vector<WorkloadSpec> &workloads,
            const std::vector<std::vector<RunMeasurement>> &sweeps)
{
    const std::optional<double> wall = cutWall(config);
    if (!wall)
        return 0;
    uint64_t cut = 0;
    for (size_t w = 0; w < workloads.size(); ++w)
        for (size_t f = 0; f + 1 < sweeps[w].size(); ++f)
            if (workloads[w].page != nullptr &&
                (!sweeps[w][f].pageFinished ||
                 sweeps[w][f].loadTimeSec > *wall))
                ++cut;
    return cut;
}

/** Whole-load floor of @p page at OPP @p f of @p config's device. */
double
loadFloor(const ExperimentConfig &config, const WebPage &page, size_t f)
{
    return RunContext::loadFloorSec(page,
                                    deviceFreqTable(config).opp(f).coreMhz);
}

/**
 * Cut cells the sweep must never simulate: those whose load-time floor
 * passes the cut wall by more than 2 dt, i.e. deadline + 4 dt.
 */
uint64_t
expectedSkipped(const ExperimentConfig &config,
                const std::vector<WorkloadSpec> &workloads)
{
    const std::optional<double> wall = cutWall(config);
    if (!wall)
        return 0;
    const size_t freqs = deviceFreqTable(config).size();
    uint64_t skipped = 0;
    for (const WorkloadSpec &w : workloads)
        for (size_t f = 0; w.page != nullptr && f + 1 < freqs; ++f)
            if (loadFloor(config, *w.page, f) >
                *wall + 2.0 * config.dtSec)
                ++skipped;
    return skipped;
}

uint64_t
counterValue(const char *name)
{
    return MetricsRegistry::global().counter(name).value();
}

/**
 * offlineOptMany() at jobs 1 and 4 and on 2 workers must pick the
 * winners of the full @p sweeps, count exactly the cells the cut left
 * unfinished, and skip exactly the cut cells past the floor line.
 * Returns the cut count. @p lane_stub sets each harness's inert lane
 * stub to 1 first; @p injector, when not null, is the fault schedule
 * the sweeps ran under.
 */
uint64_t
expectCutMatchesFullSweep(
    const ExperimentConfig &config,
    const std::vector<WorkloadSpec> &workloads,
    const std::vector<std::vector<RunMeasurement>> &sweeps,
    const char *what, bool lane_stub = false,
    FaultInjector *injector = nullptr)
{
    const auto want = fullSweepWinners(config, sweeps);
    const uint64_t want_cut = expectedCut(config, workloads, sweeps);
    const uint64_t want_skipped = expectedSkipped(config, workloads);
    // Every cell the floor skips is one the full sweep left unfinished.
    EXPECT_LE(want_skipped, want_cut) << what;
    for (const auto &[jobs, workers] :
         {std::pair{1u, 0u}, std::pair{4u, 0u}, std::pair{1u, 2u}}) {
        ComparisonHarness harness(config, nullptr, jobs);
        harness.setWorkers(workers);
        if (lane_stub)
            harness.setLanes(1);
        harness.runner().setFaultInjector(injector);
        const uint64_t cut0 = counterValue("harness.offline_cells_cut");
        const uint64_t skipped0 =
            counterValue("harness.offline_cells_skipped");
        const auto winners = harness.offlineOptMany(workloads);
        EXPECT_EQ(counterValue("harness.offline_cells_cut") - cut0,
                  want_cut)
            << what << " jobs=" << jobs << " workers=" << workers;
        EXPECT_EQ(counterValue("harness.offline_cells_skipped") - skipped0,
                  want_skipped)
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
    ModeGuard guard;
    for (bool exact : {false, true}) {
        setExactTicksMode(exact);
        const auto reference = loopTexts(nullptr);
        for (const Tier &tier : kTiers) {
            const std::string what =
                (exact ? "exact " : "adaptive ") + tier.name();
            expectSameTexts(reference, comparisonTexts(tier, nullptr),
                            what.c_str());
        }
    }
}

TEST(ParallelDeterminism, DegradedPredictiveGovernorsRideOneRun)
{
    // Without a bundle DL, EE and DORA all decide through the same
    // interactive fallback, so on every workload EE and DORA ride DL's
    // run to the end (DESIGN.md §5m) and still match the plain loop.
    const std::vector<std::string> governors = {"DL", "EE", "DORA"};
    const auto reference = loopTexts(nullptr, governors);
    MetricCounter &riders =
        MetricsRegistry::global().counter("runner.rider_cells");
    MetricCounter &drops =
        MetricsRegistry::global().counter("runner.rider_drops");
    for (const unsigned jobs : {1u, 4u}) {
        const uint64_t riders0 = riders.value();
        const uint64_t drops0 = drops.value();
        const std::string what = "jobs=" + std::to_string(jobs);
        expectSameTexts(reference,
                        comparisonTexts({jobs, 0}, nullptr, governors),
                        what.c_str());
        EXPECT_EQ(riders.value() - riders0, 2 * cheapWorkloads().size())
            << what;
        EXPECT_EQ(drops.value() - drops0, 0u) << what;
    }
}

TEST(ParallelDeterminism, FaultedComparisonBitIdentical)
{
    // A non-trivial schedule: sensor + actuator + thermal faults all
    // active. The harness clones the schedule into per-cell injectors;
    // because injectors reset their deterministic stream at the start
    // of every run, the clones must reproduce the serial measurements
    // exactly, in exact-ticks mode too.
    ModeGuard guard;
    const FaultSchedule schedule = FaultSchedule::combined(1234);
    FaultInjector serial_injector(schedule);
    FaultInjector parallel_injector(schedule);
    for (bool exact : {false, true}) {
        setExactTicksMode(exact);
        const char *mode = exact ? "exact " : "adaptive ";
        const auto serial = loopTexts(&serial_injector);
        for (const Tier &tier : kTiers) {
            const std::string what = mode + tier.name();
            expectSameTexts(serial,
                            comparisonTexts(tier, &parallel_injector),
                            what.c_str());
        }

        // The schedule must actually have fired: a faulted run differs
        // from the fault-free one (otherwise this test would be
        // vacuous).
        const auto clean = loopTexts(nullptr);
        bool any_difference = false;
        for (size_t i = 0; i < serial.size(); ++i)
            any_difference = any_difference || serial[i] != clean[i];
        EXPECT_TRUE(any_difference)
            << mode << "combined fault schedule was a no-op on every cell";
    }
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
    const double floor0 = loadFloor(cutConfig(), *alipay[0].page, 0);
    ASSERT_LT(floor0, cutConfig().maxLoadSec);

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

        // A deadline that puts alipay's floor at OPP 0 one tick past
        // the cut wall and one tick inside the skip line: that cell is
        // cut, but it must still run.
        const std::string inside = std::string(mode) + " floor inside line";
        EXPECT_GE(check(floor0 - 3.0 * cutConfig().dtSec, inside.c_str()),
                  1u)
            << inside;

        // Nothing meets a deadline <= 0: every non-max cell is cut (at
        // -1 s its window is empty) and the uncut max-OPP run is the
        // fallback.
        const std::string zero = std::string(mode) + " deadline 0";
        const std::string minus = std::string(mode) + " deadline -1";
        EXPECT_EQ(check(0.0, zero.c_str()), sweep.size() - 1);
        EXPECT_EQ(check(-1.0, minus.c_str()), sweep.size() - 1);
    }
    setExactTicksMode(false);

    // No finite cut wall, or none below maxLoadSec: nothing is cut.
    EXPECT_EQ(check(std::numeric_limits<double>::quiet_NaN(), "NaN"), 0u);
    EXPECT_EQ(check(cutConfig().maxLoadSec, "deadline = wall"), 0u);
}

/** Every field of @p s as hex floats: any one-ULP change shows. */
std::string
sampleText(const TrainingSample &s)
{
    std::string text;
    const auto put = [&text](double v) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%a ", v);
        text += buf;
    };
    for (double x : s.x)
        put(x);
    for (double v : {s.busMhz, s.voltage, s.loadTimeSec, s.meanPowerW,
                     s.meanTempC})
        put(v);
    return text;
}

TEST(ParallelDeterminism, FaultedOfflineOptCutPicksFullSweepWinners)
{
    // Fault injection never moves a cut cell's pinned OPP: its
    // FixedGovernor only asks for the OPP it already runs at, which no
    // actuator fault rejects, and thermal faults move only the
    // ambient. So the floor skip and the early end stay exact under the
    // combined schedule: the cut sweep must pick the winners of full
    // faulted sweeps.
    FaultInjector injector(FaultSchedule::combined(7));
    const ExperimentConfig config = cutConfig();
    const auto workloads = pagedWorkloads();
    ASSERT_GT(expectedSkipped(config, workloads), 0u);
    const auto faulted = fullSweeps(config, workloads, &injector);
    // Not vacuous: the schedule moves a winner.
    EXPECT_NE(fullSweepWinners(config, faulted),
              fullSweepWinners(config, fullSweeps(config, workloads)));
    EXPECT_GE(expectCutMatchesFullSweep(config, workloads, faulted,
                                        "faulted", /*lane_stub=*/false,
                                        &injector),
              4u);
}

TEST(OfflineOptFloor, BoundsEveryFinishedLoad)
{
    // Every page alone at every OPP: alone stalls least, so the floor
    // is tightest. The floor must never pass a finished load, and
    // every cell past the skip line must be unfinished at the cut
    // wall, or the skip would drop a run that could win.
    ModeGuard guard;
    ExperimentConfig config;
    config.warmupSec = 0.1;
    const double wall = *cutWall(config);
    const size_t freqs = deviceFreqTable(config).size();
    std::vector<const WebPage *> corpus;
    for (const WebPage &page : PageCorpus::all())
        corpus.push_back(&page);
    const std::vector<const WebPage *> exact_pages = {
        &PageCorpus::byName("hao123"), &PageCorpus::byName("reddit"),
        &PageCorpus::byName("alipay")};
    for (const bool exact : {false, true}) {
        setExactTicksMode(exact);
        const std::vector<const WebPage *> &pages =
            exact ? exact_pages : corpus;
        const std::vector<RunMeasurement> runs =
            parallelMap<RunMeasurement>(
                pages.size() * freqs,
                [&](size_t i) {
                    return ExperimentRunner(config).runAtFrequency(
                        WorkloadSets::alone(*pages[i / freqs]),
                        i % freqs);
                },
                4);
        size_t past_line = 0;
        for (size_t i = 0; i < runs.size(); ++i) {
            const WebPage &page = *pages[i / freqs];
            const size_t f = i % freqs;
            const double floor = loadFloor(config, page, f);
            const RunMeasurement &m = runs[i];
            const std::string where = std::string(exact ? "exact " : "") +
                page.name + " OPP " + std::to_string(f);
            if (m.pageFinished) {
                EXPECT_LE(floor, m.loadTimeSec) << where;
            }
            if (f + 1 == freqs || !(floor > wall + 2.0 * config.dtSec))
                continue;
            ++past_line;
            EXPECT_TRUE(!m.pageFinished || m.loadTimeSec > wall)
                << where << ": floor " << floor << " s, load "
                << m.loadTimeSec << " s";
        }
        // Not vacuous: 37 of the corpus' 234 cells below the max OPP
        // are past the line, heavy pages at low OPPs.
        if (!exact) {
            EXPECT_EQ(past_line, 37u);
        }
    }
}

/** @p cell run to its end, with or without the early end. */
RunMeasurement
runCell(RunCell cell, bool early_end)
{
    cell.params.discardUnlessFinished = early_end;
    RunContext run(cell.config, cell.params);
    while (!run.done())
        run.advance();
    return run.finish();
}

TEST(OfflineOptFloor, EarlyEndChangesOnlyUnfinishedRuns)
{
    // The cut cells of two short sweeps, each run with and without the
    // early end: a run must be byte-identical, or unfinished both
    // ways. Deadlines: 0.5 s, and one tick short of a measured load
    // time, so that OPP's run finishes between the deadline and the
    // cut wall, where a too-eager early end would stop it.
    ModeGuard guard;
    const std::vector<WorkloadSpec> workloads = {pagedWorkloads()[0],
                                                 pagedWorkloads()[1]};
    const size_t freqs = deviceFreqTable(cutConfig()).size();
    for (const bool exact : {false, true}) {
        setExactTicksMode(exact);
        size_t ended_early = 0;
        for (const WorkloadSpec &w : workloads) {
            // The slowest OPP that finishes inside the wall.
            ExperimentRunner runner(cutConfig());
            size_t f_first = 0;
            RunMeasurement first = runner.runAtFrequency(w, 0);
            while (!first.pageFinished && f_first + 2 < freqs)
                first = runner.runAtFrequency(w, ++f_first);
            ASSERT_TRUE(first.pageFinished) << w.label();
            for (const double deadline :
                 {0.5, first.loadTimeSec - cutConfig().dtSec}) {
                ExperimentConfig config = cutConfig(deadline);
                config.maxLoadSec = deadline + 2.0 * config.dtSec;
                const auto pair = [&](size_t i) {
                    const size_t f = i / 2;
                    return runCell(
                        makeRunCell(config, w.page, w.kernel, w.label(),
                                    std::make_unique<FixedGovernor>(f),
                                    f),
                        i % 2 == 1);
                };
                const std::vector<RunMeasurement> runs =
                    parallelMap<RunMeasurement>(2 * (freqs - 1), pair,
                                                4);
                for (size_t f = 0; f + 1 < freqs; ++f) {
                    const RunMeasurement &full = runs[2 * f];
                    const RunMeasurement &early = runs[2 * f + 1];
                    const std::string where = std::string(exact
                        ? "exact " : "adaptive ") + w.label() +
                        " deadline " + std::to_string(deadline) +
                        " OPP " + std::to_string(f);
                    if (full.pageFinished || early.pageFinished) {
                        EXPECT_EQ(runMeasurementText(full),
                                  runMeasurementText(early))
                            << where;
                    }
                    if (!early.pageFinished &&
                        early.loadTimeSec < full.loadTimeSec)
                        ++ended_early;
                }
            }
        }
        EXPECT_GT(ended_early, 0u) << (exact ? "exact" : "adaptive");
    }
}

TEST(ParallelDeterminism, TrainerSamplesBitIdentical)
{
    // Two paged workloads x two OPPs; a short load wall keeps the
    // campaign cheap (a censored page is still a deterministic
    // measurement).
    ExperimentConfig config;
    config.maxLoadSec = 1.0;
    auto workloads = WorkloadSets::webpageInclusive();
    workloads.resize(2);
    const std::vector<size_t> freqs = {0, 5};

    // The reference: runAtFrequency() in turn on one runner, each
    // measurement turned into its sample by hand.
    ExperimentRunner runner(config);
    std::vector<std::string> reference;
    for (const auto &w : workloads)
        for (size_t f : freqs) {
            const RunMeasurement m = runner.runAtFrequency(w, f);
            const OperatingPoint &opp = runner.freqTable().opp(f);
            TrainingSample s;
            s.x = buildFeatureVector(w.page->features, m.meanL2Mpki,
                                     opp.coreMhz, opp.busMhz,
                                     m.meanCorunUtil);
            s.busMhz = opp.busMhz;
            s.voltage = opp.voltage;
            s.loadTimeSec = m.loadTimeSec;
            s.meanPowerW = m.meanPowerW;
            s.meanTempC = m.meanTempC;
            reference.push_back(sampleText(s));
        }

    for (const unsigned jobs : {1u, 4u}) {
        TrainerConfig tc;
        tc.experiment = config;
        tc.jobs = jobs;
        Trainer trainer(tc);
        std::vector<std::string> got;
        for (const auto &s : trainer.collectSamples(workloads, freqs))
            got.push_back(sampleText(s));
        const std::string what = "jobs=" + std::to_string(jobs);
        expectSameTexts(reference, got, what.c_str());
    }
}

/**
 * A comparison grid under the combined fault schedule, on harnesses
 * whose lane stub is set, must match the plain loop on every tier.
 */
void
expectLaneStubFaultedIdentical(bool exact)
{
    ModeGuard guard;
    setExactTicksMode(exact);
    const FaultSchedule schedule = FaultSchedule::combined(1234);
    FaultInjector serial_injector(schedule);
    FaultInjector lane_injector(schedule);
    const auto serial = loopTexts(&serial_injector);
    for (const Tier &tier : kTiers) {
        const std::string what = "lanes=1 " + tier.name();
        expectSameTexts(serial,
                        comparisonTexts(tier, &lane_injector, kGovernors,
                                        /*lane_stub=*/true),
                        what.c_str());
    }
}

TEST(LaneBatch, AdaptiveFaultedBitIdenticalAcrossLaneCounts)
{
    expectLaneStubFaultedIdentical(false);
}

TEST(LaneBatch, ExactTicksFaultedBitIdenticalAcrossLaneCounts)
{
    expectLaneStubFaultedIdentical(true);
}

TEST(LaneBatch, ComposesWithThreadAndProcessTiers)
{
    const auto serial = loopTexts(nullptr);
    for (const Tier &tier : {Tier{2, 0}, Tier{1, 2}}) {
        const std::string what = "lanes=1 " + tier.name();
        expectSameTexts(serial,
                        comparisonTexts(tier, nullptr, kGovernors,
                                        /*lane_stub=*/true),
                        what.c_str());
    }
}

TEST(LaneBatch, OfflineOptManyBitIdentical)
{
    const auto workloads = cheapWorkloads();
    const ExperimentConfig config;
    ComparisonHarness plain(config, nullptr, 1);
    ComparisonHarness stubbed(config, nullptr, 1);
    stubbed.setLanes(1);

    const auto want = fullSweepWinners(config, fullSweeps(config, workloads));
    const auto a = plain.offlineOptMany(workloads);
    const auto b = stubbed.offlineOptMany(workloads);
    ASSERT_EQ(a.size(), workloads.size());
    ASSERT_EQ(b.size(), workloads.size());
    for (size_t w = 0; w < workloads.size(); ++w) {
        EXPECT_EQ(want[w], runMeasurementText(a[w])) << "workload " << w;
        EXPECT_EQ(want[w], runMeasurementText(b[w])) << "workload " << w;
    }
}

TEST(LaneBatch, OfflineOptCutBitIdenticalAcrossLaneCounts)
{
    // alipay misses 0.5 s at OPPs 0-2 and 360 with a co-runner at OPPs
    // 0-9, so 3 + 10 cells are cut; nothing meets -1 s (exact mode), so
    // every non-max cell is cut with an empty window.
    ModeGuard guard;
    const std::vector<WorkloadSpec> workloads = {pagedWorkloads()[0],
                                                 pagedWorkloads()[1]};
    for (bool exact : {false, true}) {
        setExactTicksMode(exact);
        for (double deadline : {0.5, -1.0}) {
            if (!exact && deadline < 0)
                continue;
            const ExperimentConfig config = cutConfig(deadline);
            const std::string what =
                std::string(exact ? "exact" : "adaptive") + " deadline " +
                std::to_string(deadline) + " lanes=1";
            EXPECT_EQ(expectCutMatchesFullSweep(
                          config, workloads, fullSweeps(config, workloads),
                          what.c_str(), /*lane_stub=*/true),
                      deadline > 0 ? 13u : 26u)
                << what;
        }
    }
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
