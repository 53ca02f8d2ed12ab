/**
 * @file
 * Determinism and snapshot contracts of the lane-batched execution
 * tier (sim/lane_batch.hh): a comparison/training campaign run at any
 * lane count must produce RunMeasurement/TrainingSample vectors
 * bit-identical to a plain loop of ExperimentRunner::run() /
 * runAtFrequency() on one runner (the runOne() path, which the cell
 * executor does not run) — in adaptive AND exact-ticks mode, with a
 * non-trivial fault schedule active, and composed with the thread and
 * process tiers. Identity is checked through runMeasurementText()
 * (hex-float rendering), so any single-ULP divergence fails.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "browser/page_corpus.hh"
#include "common/exact_ticks.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "dora/features.hh"
#include "dora/sample_io.hh"
#include "dora/trainer.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_schedule.hh"
#include "harness/comparison.hh"
#include "obs/metrics.hh"
#include "sim/lane_batch.hh"
#include "workloads/corun_task.hh"
#include "workloads/kernel.hh"

namespace dora
{
namespace
{

/** Restore the process-wide adaptive default on scope exit. */
struct ModeGuard
{
    ~ModeGuard() { setExactTicksMode(false); }
};

/** Two cheap kernel-only workloads (no page => short 1 s windows). */
std::vector<WorkloadSpec>
cheapWorkloads()
{
    return {
        WorkloadSets::kernelOnly(KernelCatalog::byName("kmeans")),
        WorkloadSets::kernelOnly(KernelCatalog::byName("srad2")),
    };
}

/** Model-free governors so no training campaign is needed. */
const std::vector<std::string> kGovernors = {"interactive", "ondemand"};

std::vector<std::string>
comparisonTexts(unsigned lanes, FaultInjector *injector,
                unsigned jobs = 1, unsigned workers = 0)
{
    ComparisonHarness harness(ExperimentConfig{}, nullptr, jobs);
    harness.setLanes(lanes);
    harness.setWorkers(workers);
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

void
expectLaneCountsIdentical(FaultInjector *serial_injector,
                          FaultInjector *lane_injector)
{
    const auto serial = loopTexts(serial_injector);
    for (unsigned lanes : {1u, 2u, 4u, 8u}) {
        if (lane_injector)
            lane_injector->reset();
        const auto batched = comparisonTexts(lanes, lane_injector);
        ASSERT_EQ(serial.size(), batched.size());
        for (size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(serial[i], batched[i])
                << "lanes=" << lanes << " cell " << i;
    }
}

TEST(LaneBatch, AdaptiveFaultedBitIdenticalAcrossLaneCounts)
{
    const FaultSchedule schedule = FaultSchedule::combined(1234);
    FaultInjector serial_injector(schedule);
    FaultInjector lane_injector(schedule);
    expectLaneCountsIdentical(&serial_injector, &lane_injector);
}

TEST(LaneBatch, ExactTicksFaultedBitIdenticalAcrossLaneCounts)
{
    // Exact mode exercises the fused path: all lanes advance in
    // lock-step rounds through one cross-lane tickSampleMany().
    ModeGuard guard;
    setExactTicksMode(true);
    const FaultSchedule schedule = FaultSchedule::combined(1234);
    FaultInjector serial_injector(schedule);
    FaultInjector lane_injector(schedule);
    expectLaneCountsIdentical(&serial_injector, &lane_injector);
}

TEST(LaneBatch, ComposesWithThreadAndProcessTiers)
{
    const auto serial = loopTexts(nullptr);

    // Thread tier: each pool job advances one whole batch.
    const auto threaded = comparisonTexts(2, nullptr, /*jobs=*/2);
    ASSERT_EQ(serial.size(), threaded.size());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], threaded[i]) << "jobs tier cell " << i;

    // Process tier: each worker unit is a batch, shipped as one
    // packed payload (packPayloads round trip).
    const auto proc =
        comparisonTexts(2, nullptr, /*jobs=*/1, /*workers=*/2);
    ASSERT_EQ(serial.size(), proc.size());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], proc[i]) << "proc tier cell " << i;
}

/**
 * Offline-opt reference: pickOfflineOpt() over a full runAtFrequency()
 * sweep per workload on one runner, so nothing is cut.
 */
std::vector<std::string>
loopOfflineOptTexts(const ExperimentConfig &config,
                    const std::vector<WorkloadSpec> &workloads)
{
    ExperimentRunner runner(config);
    ComparisonHarness picker(config, nullptr, 1);
    std::vector<std::string> texts;
    for (const auto &w : workloads) {
        std::vector<RunMeasurement> sweep;
        for (size_t f = 0; f < runner.freqTable().size(); ++f)
            sweep.push_back(runner.runAtFrequency(w, f));
        texts.push_back(
            runMeasurementText(picker.pickOfflineOpt(std::move(sweep))));
    }
    return texts;
}

TEST(LaneBatch, OfflineOptManyBitIdentical)
{
    const auto workloads = cheapWorkloads();
    ComparisonHarness serial(ExperimentConfig{}, nullptr, 1);
    serial.setLanes(1);
    ComparisonHarness batched(ExperimentConfig{}, nullptr, 1);
    batched.setLanes(4);

    const auto a = serial.offlineOptMany(workloads);
    const auto b = batched.offlineOptMany(workloads);
    ASSERT_EQ(a.size(), workloads.size());
    ASSERT_EQ(b.size(), workloads.size());
    const auto want = loopOfflineOptTexts(ExperimentConfig{}, workloads);
    for (size_t i = 0; i < workloads.size(); ++i) {
        EXPECT_EQ(want[i], runMeasurementText(a[i])) << "workload " << i;
        EXPECT_EQ(want[i], runMeasurementText(b[i])) << "workload " << i;
    }
}

TEST(LaneBatch, OfflineOptCutBitIdenticalAcrossLaneCounts)
{
    // Paged cells on a cheap config whose 0.5 s deadline alipay misses
    // at OPPs 0-2 and 360 with a co-runner at OPPs 0-9: offlineOptMany()
    // cuts those cells at the deadline, so lanes of one batch end at
    // different ticks. At a -1 s deadline (exact mode, the fused walk)
    // every non-max lane has an empty window. Winners must match full
    // runAtFrequency() sweeps.
    ModeGuard guard;
    const std::vector<WorkloadSpec> workloads = {
        WorkloadSets::alone(PageCorpus::byName("alipay")),
        WorkloadSets::combo(PageCorpus::byName("360"), MemIntensity::High),
    };
    MetricCounter &cut = MetricsRegistry::global().counter(
        "harness.offline_cells_cut");
    for (bool exact : {false, true}) {
        setExactTicksMode(exact);
        for (double deadline : {0.5, -1.0}) {
            if (!exact && deadline < 0)
                continue;
            ExperimentConfig config;
            config.warmupSec = 0.1;
            config.maxLoadSec = 1.5;
            config.deadlineSec = deadline;
            const auto want = loopOfflineOptTexts(config, workloads);
            for (const auto &[jobs, lanes] :
                 {std::pair{1u, 1u}, std::pair{1u, 4u},
                  std::pair{4u, 4u}}) {
                ComparisonHarness harness(config, nullptr, jobs);
                harness.setLanes(lanes);
                const uint64_t before = cut.value();
                const auto got = harness.offlineOptMany(workloads);
                // 3 + 10 cells miss 0.5 s; nothing meets -1 s.
                EXPECT_EQ(cut.value() - before, deadline > 0 ? 13u : 26u)
                    << "exact=" << exact << " lanes=" << lanes;
                ASSERT_EQ(got.size(), want.size());
                for (size_t w = 0; w < want.size(); ++w)
                    EXPECT_EQ(want[w], runMeasurementText(got[w]))
                        << "exact=" << exact << " deadline=" << deadline
                        << " jobs=" << jobs << " lanes=" << lanes
                        << " workload " << w;
            }
        }
    }
}

TEST(LaneBatch, TrainerSamplesBitIdentical)
{
    // Two paged workloads x two OPPs; a short load wall keeps the
    // campaign cheap (a censored page is still a deterministic
    // measurement).
    ExperimentConfig config;
    config.maxLoadSec = 1.0;
    auto workloads = WorkloadSets::webpageInclusive();
    workloads.resize(2);
    const std::vector<size_t> freqs = {0, 5};

    auto texts = [&](unsigned lanes, unsigned workers) {
        TrainerConfig tc;
        tc.experiment = config;
        tc.jobs = 1;
        tc.workers = workers;
        tc.lanes = lanes;
        Trainer trainer(tc);
        std::vector<std::string> out;
        for (const auto &s : trainer.collectSamples(workloads, freqs))
            out.push_back(serializeTrainingSample(s));
        return out;
    };

    // The reference: runAtFrequency() in turn on one runner, each
    // measurement turned into its sample by hand.
    ExperimentRunner runner(config);
    std::vector<std::string> serial;
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
            serial.push_back(serializeTrainingSample(s));
        }

    // In-process at lanes 1 and 3 (a rump batch), then the process
    // tier at both lane counts.
    for (unsigned workers : {0u, 2u})
        for (unsigned lanes : {1u, 3u}) {
            const auto batched = texts(lanes, workers);
            ASSERT_EQ(serial.size(), batched.size());
            for (size_t i = 0; i < serial.size(); ++i)
                EXPECT_EQ(serial[i], batched[i])
                    << "workers=" << workers << " lanes=" << lanes
                    << " cell " << i;
        }
}

TEST(LaneBatch, SnapshotRewindMidBatchBitIdentical)
{
    // Snapshot a lane mid-batch through common/snapshot, run the
    // batch to completion, rewind the lane, and replay: the replayed
    // measurement must be bit-identical to the first pass.
    std::vector<std::unique_ptr<CorunTask>> coruns;
    std::vector<std::unique_ptr<Governor>> governors;
    std::vector<RunContext::Params> specs;
    for (const WorkloadSpec &spec : cheapWorkloads()) {
        // Same corun salt recipe as makeRunCell().
        const uint64_t salt =
            hashLabel("corun:" + spec.label()) % 4096;
        coruns.push_back(
            std::make_unique<CorunTask>(*spec.kernel, salt));
        governors.push_back(std::make_unique<InteractiveGovernor>());
        RunContext::Params p;
        p.corun = coruns.back().get();
        p.label = spec.label();
        p.governor = governors.back().get();
        specs.push_back(std::move(p));
    }
    LaneBatchSimulator batch(ExperimentConfig{}, std::move(specs));

    for (int round = 0; round < 10; ++round)
        ASSERT_TRUE(batch.tickAll());
    ASSERT_FALSE(batch.lane(0).done());

    SnapshotWriter w;
    batch.lane(0).snapshot(w);
    const std::string bytes = w.finish();

    batch.runAll();
    const RunMeasurement first = batch.lane(0).finish();

    SnapshotReader r(bytes);
    ASSERT_TRUE(r.checksumOk());
    ASSERT_TRUE(batch.lane(0).tryRestore(r));
    ASSERT_FALSE(batch.lane(0).done());
    while (!batch.lane(0).done())
        batch.lane(0).advance();
    const RunMeasurement replay = batch.lane(0).finish();

    EXPECT_EQ(runMeasurementText(first), runMeasurementText(replay));
}

} // namespace
} // namespace dora
