/**
 * @file
 * Harness utilities plus the end-to-end integration test: train a
 * reduced model bundle against the simulator, then drive DORA and
 * verify the paper's qualitative claims on live workloads.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "browser/page_corpus.hh"
#include "dora/trainer.hh"
#include "harness/comparison.hh"
#include "obs/metrics.hh"
#include "workloads/kernel.hh"

namespace dora
{
namespace
{

ComparisonRecord
fabricatedRecord(double base_ppw, double dora_ppw, bool dora_meets,
                 bool dora_censored = false,
                 bool base_censored = false)
{
    ComparisonRecord r;
    RunMeasurement base;
    base.ppw = base_censored ? 0.0 : base_ppw;
    base.meetsDeadline = !base_censored;
    base.censored = base_censored;
    RunMeasurement dora;
    dora.ppw = dora_censored ? 0.0 : dora_ppw;
    dora.meetsDeadline = dora_meets;
    dora.censored = dora_censored;
    r.setMeasurement("interactive", base);
    r.setMeasurement("DORA", dora);
    return r;
}

/** Every name a ComparisonRecord stores. */
const std::vector<std::string> kRegistry = {
    "interactive", "performance", "powersave", "ondemand", "DL",
    "EE",          "DORA",        "DORA_no_lkg", "offline_opt"};

TEST(GovernorRegistry, DenseIdsRoundTrip)
{
    // Every registry name keys a slot of its own: storing all of them,
    // in reverse, reads each one back under its own name.
    ComparisonRecord r;
    for (size_t i = kRegistry.size(); i-- > 0;) {
        RunMeasurement m;
        m.governor = kRegistry[i];
        m.ppw = static_cast<double>(i + 1);
        r.setMeasurement(kRegistry[i], m);
    }
    for (size_t i = 0; i < kRegistry.size(); ++i) {
        EXPECT_EQ(r.measurement(kRegistry[i]).governor, kRegistry[i]);
        EXPECT_DOUBLE_EQ(r.measurement(kRegistry[i]).ppw,
                         static_cast<double>(i + 1));
    }
}

TEST(ComparisonRecord, FlatStorageTracksPresence)
{
    ComparisonRecord r;
    RunMeasurement m;
    m.ppw = 0.5;
    r.setMeasurement("DORA", m);
    EXPECT_DOUBLE_EQ(r.measurement("DORA").ppw, 0.5);
    // Overwrites keep a single slot per governor.
    m.ppw = 0.75;
    r.setMeasurement("DORA", m);
    EXPECT_DOUBLE_EQ(r.measurement("DORA").ppw, 0.75);
}

TEST(ComparisonRecordDeathTest, UnknownGovernorIsFatal)
{
    ComparisonRecord r;
    EXPECT_EXIT(r.setMeasurement("warp-drive", RunMeasurement{}),
                ::testing::ExitedWithCode(1),
                "unknown governor 'warp-drive'");
    EXPECT_EXIT(r.measurement("warp-drive"), ::testing::ExitedWithCode(1),
                "unknown governor 'warp-drive'");
}

TEST(ComparisonRecordDeathTest, MissingGovernorDies)
{
    ComparisonRecord r;
    EXPECT_DEATH(r.measurement("interactive"),
                 "no measurement for governor 'interactive'");
    r.setMeasurement("DORA", RunMeasurement{});
    // EE's slot sits below DORA's: grown, but never stored.
    EXPECT_DEATH(r.measurement("EE"), "no measurement for governor 'EE'");
    EXPECT_DEATH(r.normalizedPpw("DORA"),
                 "no measurement for governor 'interactive'");
}

TEST(ComparisonRecord, NormalizesAgainstInteractive)
{
    const auto r = fabricatedRecord(0.2, 0.25, true);
    EXPECT_DOUBLE_EQ(r.normalizedPpw("interactive"), 1.0);
    EXPECT_DOUBLE_EQ(r.normalizedPpw("DORA"), 1.25);
}

TEST(HarnessStats, MeanAndMeetRate)
{
    std::vector<ComparisonRecord> records;
    records.push_back(fabricatedRecord(0.2, 0.22, true));
    records.push_back(fabricatedRecord(0.2, 0.26, true));
    records.push_back(fabricatedRecord(0.2, 0.20, false));
    EXPECT_NEAR(meanNormalizedPpw(records, "DORA"), 1.1333, 1e-3);
    EXPECT_NEAR(deadlineMeetRate(records, "DORA"), 2.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(deadlineMeetRate(records, "interactive"), 1.0);
}

TEST(HarnessStats, EmptyRecordsAreZero)
{
    EXPECT_DOUBLE_EQ(meanNormalizedPpw({}, "DORA"), 0.0);
    EXPECT_DOUBLE_EQ(deadlineMeetRate({}, "DORA"), 0.0);
}

TEST(HarnessStats, CensoredRunsAreCountedNotAveraged)
{
    // Two clean records averaging 1.2, one record whose DORA run is
    // censored (PPW 0 — a flag, not a score), one whose interactive
    // baseline is censored (no denominator exists). Both censored
    // records must leave the mean untouched and show up in the count.
    std::vector<ComparisonRecord> records;
    records.push_back(fabricatedRecord(0.2, 0.22, true));
    records.push_back(fabricatedRecord(0.2, 0.26, true));
    records.push_back(fabricatedRecord(0.2, 0.0, false,
                                       /*dora_censored=*/true));
    records.push_back(fabricatedRecord(0.2, 0.24, true,
                                       /*dora_censored=*/false,
                                       /*base_censored=*/true));
    EXPECT_NEAR(meanNormalizedPpw(records, "DORA"), 1.2, 1e-12);
    EXPECT_EQ(censoredCount(records, "DORA"), 2u);
    // A censored DORA run provably missed the deadline, so the meet
    // rate keeps the full denominator: 3 of 4.
    EXPECT_NEAR(deadlineMeetRate(records, "DORA"), 3.0 / 4.0, 1e-12);
}

TEST(HarnessStats, AllCensoredMeansZero)
{
    std::vector<ComparisonRecord> records;
    records.push_back(fabricatedRecord(0.2, 0.0, false, true));
    EXPECT_DOUBLE_EQ(meanNormalizedPpw(records, "DORA"), 0.0);
    EXPECT_EQ(censoredCount(records, "DORA"), 1u);
}

TEST(OfflineOpt, ShortSweepIsFatal)
{
    // A sweep shorter than the OPP table once returned a silent
    // default-constructed measurement; it must now fail loudly.
    ComparisonHarness harness(ExperimentConfig{}, nullptr, 1);
    std::vector<RunMeasurement> sweep(3);
    EXPECT_EXIT(harness.pickOfflineOpt(sweep),
                ::testing::ExitedWithCode(1),
                "pickOfflineOpt: sweep covers 3 OPPs");

    // A longer sweep is as wrong: entry f must be OPP f, yet the extra
    // entries would compete for the winner (here the best-PPW run
    // meeting the deadline sits past the table) while the fallback is
    // read at maxIndex().
    const size_t opps = harness.runner().freqTable().size();
    std::vector<RunMeasurement> oversized(opps + 1);
    oversized.back().meetsDeadline = true;
    oversized.back().ppw = 9.0;
    EXPECT_EXIT(harness.pickOfflineOpt(oversized),
                ::testing::ExitedWithCode(1),
                "pickOfflineOpt: sweep covers " +
                    std::to_string(opps + 1) + " OPPs but the table has " +
                    std::to_string(opps));
}

TEST(OfflineOpt, PicksBestMeetingPpwOrFastestFallback)
{
    ComparisonHarness harness(ExperimentConfig{}, nullptr, 1);
    const size_t opps = harness.runner().freqTable().size();
    std::vector<RunMeasurement> sweep(opps);
    for (size_t f = 0; f < opps; ++f) {
        sweep[f].ppw = 1.0 + 0.1 * static_cast<double>(f);
        sweep[f].meetsDeadline = (f == 2 || f == 5);
    }
    const RunMeasurement best = harness.pickOfflineOpt(sweep);
    EXPECT_EQ(best.governor, "offline_opt");
    EXPECT_DOUBLE_EQ(best.ppw, 1.5);
    // No OPP meets the deadline -> flat-out fallback.
    for (auto &m : sweep)
        m.meetsDeadline = false;
    const RunMeasurement fallback = harness.pickOfflineOpt(sweep);
    EXPECT_DOUBLE_EQ(
        fallback.ppw,
        sweep[harness.runner().freqTable().maxIndex()].ppw);
}

/**
 * Exit-time report of cells simulated, printed by a death-test child
 * on its way out.
 */
void
reportRunsAtExit()
{
    std::atexit([] {
        std::fprintf(stderr, "runs=%llu\n",
                     static_cast<unsigned long long>(
                         MetricsRegistry::global()
                             .counter("runner.runs")
                             .value()));
    });
}

TEST(ComparisonHarnessDeath, RepeatedGovernorIsFatalBeforeAnyCellRuns)
{
    // The later twin used to overwrite the earlier one's record slot.
    const std::vector<WorkloadSpec> w = {
        WorkloadSets::kernelOnly(KernelCatalog::byName("kmeans"))};
    EXPECT_EXIT(
        {
            reportRunsAtExit();
            ComparisonHarness(ExperimentConfig{}, nullptr, 1)
                .runAll(w, {"interactive", "ondemand", "interactive"});
        },
        ::testing::ExitedWithCode(1),
        "runAll: governor 'interactive' is listed twice\nruns=0");
}

TEST(ComparisonHarnessDeath, UnknownGovernorIsFatalBeforeAnyCellRuns)
{
    // Serially the first cell used to run before the unknown name
    // failed.
    const std::vector<WorkloadSpec> w = {
        WorkloadSets::kernelOnly(KernelCatalog::byName("kmeans"))};
    EXPECT_EXIT(
        {
            reportRunsAtExit();
            ComparisonHarness(ExperimentConfig{}, nullptr, 1)
                .runAll(w, {"interactive", "warp-drive"});
        },
        ::testing::ExitedWithCode(1),
        "unknown governor 'warp-drive'\nruns=0");
}

TEST(ComparisonHarness, PaperGovernorList)
{
    const auto &names = ComparisonHarness::paperGovernors();
    ASSERT_EQ(names.size(), 5u);
    EXPECT_EQ(names.front(), "interactive");
    EXPECT_EQ(names.back(), "DORA");
}

/**
 * End-to-end integration: reduced-size training, then live DORA runs.
 * This is the complete paper pipeline (characterize -> fit -> govern)
 * compressed to a handful of workloads so it stays test-sized.
 */
class EndToEnd : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        TrainerConfig config;
        config.maxTrainingWorkloads = 18;
        config.trainingFreqIndices = {0, 1, 4, 7, 9, 11, 13};
        config.chamberAmbientsC = {15.0, 35.0, 55.0};
        Trainer trainer(config);
        bundle_ = std::make_shared<const ModelBundle>(trainer.train());
        report_ = trainer.report();
    }

    static std::shared_ptr<const ModelBundle> bundle_;
    static TrainingReport report_;
};

std::shared_ptr<const ModelBundle> EndToEnd::bundle_;
TrainingReport EndToEnd::report_;

TEST_F(EndToEnd, TrainingProducesReadyBundle)
{
    ASSERT_TRUE(bundle_->ready());
    EXPECT_TRUE(bundle_->leakageFitted);
    EXPECT_EQ(report_.numMeasurements, 18u * 7u);
    EXPECT_TRUE(report_.leakageConverged);
    EXPECT_LT(report_.leakageRmseW, 0.1);
    EXPECT_LT(report_.timeTrainMeanPctErr, 0.10);
    EXPECT_LT(report_.powerTrainMeanPctErr, 0.05);
}

TEST_F(EndToEnd, DoraMeetsFeasibleDeadline)
{
    ComparisonHarness harness(ExperimentConfig{}, bundle_);
    // amazon trains in the reduced set (first workloads are the
    // earliest corpus pages) — but DORA must work on any page; use a
    // mid-complexity one under medium interference.
    const auto w = WorkloadSets::combo(PageCorpus::byName("amazon"),
                                       MemIntensity::Medium);
    const RunMeasurement dora = harness.runOne(w, "DORA");
    EXPECT_TRUE(dora.pageFinished);
    EXPECT_TRUE(dora.meetsDeadline);
}

TEST_F(EndToEnd, DoraBeatsInteractiveOnEnergyEfficiency)
{
    ComparisonHarness harness(ExperimentConfig{}, bundle_);
    const auto w = WorkloadSets::combo(PageCorpus::byName("amazon"),
                                       MemIntensity::Medium);
    const RunMeasurement base = harness.runOne(w, "interactive");
    const RunMeasurement dora = harness.runOne(w, "DORA");
    EXPECT_GT(dora.ppw, 1.03 * base.ppw);
}

TEST_F(EndToEnd, DoraRunsFlatOutWhenDeadlineInfeasible)
{
    ComparisonHarness harness(ExperimentConfig{}, bundle_);
    const auto w = WorkloadSets::combo(
        PageCorpus::byName("aliexpress"), MemIntensity::High);
    const RunMeasurement dora = harness.runOne(w, "DORA");
    EXPECT_FALSE(dora.meetsDeadline);
    // Flat out: mean frequency pinned at (or next to) the top OPP.
    EXPECT_GT(dora.meanFreqMhz, 2100.0);
}

TEST_F(EndToEnd, EeViolatesDeadlineSomewhereDoraDoesNot)
{
    ComparisonHarness harness(ExperimentConfig{}, bundle_);
    const auto w = WorkloadSets::combo(PageCorpus::byName("espn"),
                                       MemIntensity::Medium);
    const RunMeasurement ee = harness.runOne(w, "EE");
    const RunMeasurement dora = harness.runOne(w, "DORA");
    EXPECT_FALSE(ee.meetsDeadline);
    EXPECT_TRUE(dora.meetsDeadline);
}

TEST_F(EndToEnd, OfflineOptIsNoWorseThanInteractive)
{
    ComparisonHarness harness(ExperimentConfig{}, bundle_);
    const auto w = WorkloadSets::combo(PageCorpus::byName("msn"),
                                       MemIntensity::Low);
    const RunMeasurement base = harness.runOne(w, "interactive");
    const RunMeasurement opt = harness.offlineOpt(w);
    EXPECT_GE(opt.ppw, 0.99 * base.ppw);
    EXPECT_TRUE(opt.meetsDeadline);
}

/**
 * Riders (DESIGN.md §5m) on trained governors: in each workload's gang
 * (performance, DL, EE, DORA; interactive decides at its own interval)
 * DORA repeats EE's run on alipay+hotspot and bbc+kmeans, DL's on
 * reddit+heartwall, msn+nw and espn+srad2, and both on msn+heartwall,
 * where DL and EE coincide too. Jobs 1 and 4 must reproduce the runOne()
 * loop byte for byte, and the rider counts are exact: a change to the
 * gang key that silently turns riders off fails here.
 */
TEST_F(EndToEnd, RidersReproduceTheRunOneLoop)
{
    const std::vector<std::string> labels = {
        "alipay+hotspot", "reddit+heartwall", "msn+heartwall",
        "msn+nw",         "bbc+kmeans",       "espn+srad2"};
    std::vector<WorkloadSpec> workloads;
    for (const std::string &label : labels)
        for (const WorkloadSpec &w : WorkloadSets::paperCombinations())
            if (w.label() == label)
                workloads.push_back(w);
    ASSERT_EQ(workloads.size(), labels.size());

    const auto &governors = ComparisonHarness::paperGovernors();
    ComparisonHarness reference(ExperimentConfig{}, bundle_, 1);
    std::vector<std::string> expected;
    for (const WorkloadSpec &w : workloads)
        for (const std::string &g : governors)
            expected.push_back(runMeasurementText(reference.runOne(w, g)));

    MetricCounter &riders =
        MetricsRegistry::global().counter("runner.rider_cells");
    MetricCounter &drops =
        MetricsRegistry::global().counter("runner.rider_drops");
    for (const unsigned jobs : {1u, 4u}) {
        const std::string where = "jobs=" + std::to_string(jobs);
        ComparisonHarness harness(ExperimentConfig{}, bundle_, jobs);
        const uint64_t riders0 = riders.value();
        const uint64_t drops0 = drops.value();
        const auto records = harness.runAll(workloads);
        size_t i = 0;
        for (const ComparisonRecord &r : records)
            for (const std::string &g : governors)
                EXPECT_EQ(runMeasurementText(r.measurement(g)),
                          expected[i++])
                    << where << " " << r.workload.label() << " " << g;
        // Performance leads first and drops DL, EE and DORA (3 per
        // workload); DL then leads and keeps DORA on its three twins
        // (EE dropped: 1 each), keeps both on msn+heartwall, and drops
        // both on the EE twins, where EE then leads with DORA riding.
        EXPECT_EQ(riders.value() - riders0, 7u) << where;
        EXPECT_EQ(drops.value() - drops0, 25u) << where;
    }
}

} // namespace
} // namespace dora
