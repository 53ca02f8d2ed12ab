/**
 * @file
 * Exact work counts of small slices of the benchmark workloads.
 *
 * The repository benchmark (benchmark/) judges speed, as alternating
 * parent/change runs with fixed bounds. This suite judges how much
 * work those runs do, with no host noise: each slice runs through a
 * shipped entry point at workers 0, once at jobs 1 and once at jobs 4,
 * and the metrics-registry counters it adds must equal the constants
 * below. They move when estimator reuse, governor riders, the
 * offline-opt deadline cut and load-floor skip, macro-tick batching or
 * the per-tick sample size change what a run simulates.
 *
 * Each slice also pins one digest of what it returns, so the suite
 * catches a build whose results drift (say, floating-point contraction
 * under -march=native) as well as one whose work does.
 *
 * On a mismatch the test prints the measured counts and digest ready
 * to paste. A deliberate change re-blesses by editing the constants
 * and stating the reason in CHANGES.md, the way benchmark/golden.json
 * is re-blessed.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>

#include "browser/page_corpus.hh"
#include "common/exact_ticks.hh"
#include "common/rng.hh"
#include "dora/trainer.hh"
#include "fleet/aggregate.hh"
#include "fleet/campaign.hh"
#include "harness/comparison.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runner/workload.hh"

namespace dora
{
namespace
{

/** The counters every slice pins, in the order of the constants. */
constexpr const char *kCounters[] = {
    "runner.runs",
    "sim.ticks",
    "sim.macrotick.batches",
    "sim.macrotick.batched_ticks",
    "mem.sample.walks",
    "mem.sample.reused",
    "mem.l1_probes",
    "mem.l2_probes",
    "governor.decisions",
    "runner.rider_cells",
    "runner.rider_drops",
    "harness.offline_cells_cut",
    "fault.sensor_drops",
};

using WorkCounts = std::array<uint64_t, std::size(kCounters)>;

WorkCounts
readCounters()
{
    WorkCounts counts{};
    for (size_t i = 0; i < counts.size(); ++i)
        counts[i] = MetricsRegistry::global().counter(kCounters[i]).value();
    return counts;
}

/** The counts as a constant to paste over the expected one. */
std::string
pasteable(const WorkCounts &counts)
{
    std::ostringstream out;
    out << "{";
    for (size_t i = 0; i < counts.size(); ++i)
        out << (i ? ", " : "") << counts[i];
    out << "}";
    return out.str();
}

/**
 * Run @p slice at jobs 1 and 4; the counters each run adds must equal
 * @p expected, and the digest it returns must equal @p digest.
 */
void
expectWork(const WorkCounts &expected, uint64_t digest,
           const std::function<uint64_t(unsigned jobs)> &slice)
{
    for (const unsigned jobs : {1u, 4u}) {
        const WorkCounts before = readCounters();
        const uint64_t got_digest = slice(jobs);
        WorkCounts got = readCounters();
        for (size_t i = 0; i < got.size(); ++i)
            got[i] -= before[i];
        std::ostringstream diff;
        for (size_t i = 0; i < got.size(); ++i)
            if (got[i] != expected[i])
                diff << "  " << kCounters[i] << ": expected "
                     << expected[i] << ", measured " << got[i] << "\n";
        EXPECT_EQ(got, expected)
            << "at jobs " << jobs << ":\n"
            << diff.str() << "measured counts, ready to paste:\n    "
            << pasteable(got);
        EXPECT_EQ(hexU64(got_digest), hexU64(digest))
            << "result digest at jobs " << jobs << ", ready to paste:\n"
            << "    " << hexU64(got_digest);
    }
}

/** The benchmark's tiny training campaign (its self-test bundle). */
TrainerConfig
tinyTraining(unsigned jobs)
{
    TrainerConfig config;
    config.jobs = jobs;
    config.chamberAmbientsC = {15.0, 35.0, 55.0};
    config.maxTrainingWorkloads = 6;
    config.trainingFreqIndices = {0, 4, 9, 13};
    return config;
}

/** The tiny bundle, trained once per process outside any slice. */
std::shared_ptr<const ModelBundle>
tinyBundle()
{
    static const std::shared_ptr<const ModelBundle> bundle =
        std::make_shared<const ModelBundle>(
            Trainer(tinyTraining(4)).train());
    return bundle;
}

WorkloadSpec
combo(const char *page, MemIntensity cls)
{
    return WorkloadSets::combo(PageCorpus::byName(page), cls);
}

TEST(WorkCounts, Training)
{
    constexpr WorkCounts kExpected = {
        24, 63867, 650, 63216, 48047, 15820, 40716433, 2922081, 650, 0, 0,
        0, 0};
    expectWork(kExpected, 0x672fe05e15933aeaull, [](unsigned jobs) {
        return hashLabel(Trainer(tinyTraining(jobs)).train().serialize());
    });
}

TEST(WorkCounts, PaperGrid)
{
    // bbc x Medium's floor at OPP 0 is 3.22 s, past the 3.004 s line,
    // so its offline sweep simulates 13 of its 14 cells.
    constexpr WorkCounts kExpected = {
        25, 83277, 1224, 82053, 62747, 20530, 88634570, 8704521, 1224, 3,
        13, 1, 0};
    const std::shared_ptr<const ModelBundle> models = tinyBundle();
    expectWork(kExpected, 0x8ff2336009f9074full, [&models](unsigned jobs) {
        ComparisonHarness harness(ExperimentConfig{}, models, jobs);
        uint64_t chain = hashLabel("work-counts:paper-grid");
        for (const ComparisonRecord &record :
             harness.runAll({combo("alipay", MemIntensity::Low),
                             combo("bbc", MemIntensity::Medium),
                             combo("imgur", MemIntensity::High)},
                            ComparisonHarness::paperGovernors()))
            for (const std::string &g : ComparisonHarness::paperGovernors())
                chain = chainDigest(
                    chain, runMeasurementDigest(record.measurement(g)));
        return chainDigest(
            chain, runMeasurementDigest(harness.offlineOpt(
                       combo("bbc", MemIntensity::Medium))));
    });
}

TEST(WorkCounts, FleetDora)
{
    constexpr WorkCounts kExpected = {
        24, 83955, 2250, 81703, 51527, 32428, 95939730, 11244596, 2249, 0,
        0, 0, 275};
    const std::shared_ptr<const ModelBundle> models = tinyBundle();
    expectWork(kExpected, 0x8ebd69f6aee0d219ull, [&models](unsigned jobs) {
        FleetCampaignConfig config;
        config.spec.seed = 7;
        config.spec.devices = 8;
        config.spec.faultIncidence = 0.25;
        config.governors = {"DORA", "ondemand", "interactive"};
        config.models = models;
        config.jobs = jobs;
        config.workers = 0;
        config.chunkDevices = 4;
        return FleetEngine(config).run().populationDigest;
    });
}

TEST(WorkCounts, ExactSweep)
{
    // The deadline cut leaves 6 of reddit x High's 14 cells
    // unfinished. Two of them never run: their load-time floors at
    // OPPs 0 and 1 (6.08 s and 4.32 s) are past the 3.004 s line.
    // OPPs 2-5 end once their elapsed time plus floor passes it, so
    // the cut shows in exact mode too.
    constexpr WorkCounts kExpected = {
        12, 50210, 0, 0, 0, 0, 55590781, 8131673, 508, 0, 0, 6, 0};
    setExactTicksMode(true);
    expectWork(kExpected, 0xdbc6cc4166d3c30cull, [](unsigned jobs) {
        ComparisonHarness harness(ExperimentConfig{}, nullptr, jobs);
        return runMeasurementDigest(
            harness.offlineOpt(combo("reddit", MemIntensity::High)));
    });
    setExactTicksMode(false);
}

} // namespace
} // namespace dora
