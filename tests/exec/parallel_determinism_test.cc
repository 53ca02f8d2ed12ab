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
 */

#include <gtest/gtest.h>

#include <cmath>

#include "fault/fault_injector.hh"
#include "fault/fault_schedule.hh"
#include "harness/comparison.hh"
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

/** Offline-opt reference: a runAtFrequency() sweep on one runner. */
RunMeasurement
loopOfflineOpt(const WorkloadSpec &workload)
{
    ComparisonHarness picker(ExperimentConfig{}, nullptr, 1);
    ExperimentRunner runner;
    std::vector<RunMeasurement> sweep;
    for (size_t f = 0; f < runner.freqTable().size(); ++f)
        sweep.push_back(runner.runAtFrequency(workload, f));
    return picker.pickOfflineOpt(std::move(sweep));
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
    ComparisonHarness serial(ExperimentConfig{}, nullptr, 1);
    ComparisonHarness parallel(ExperimentConfig{}, nullptr, 4);

    const auto reference = runMeasurementText(loopOfflineOpt(workloads[0]));
    EXPECT_EQ(reference, runMeasurementText(serial.offlineOpt(workloads[0])));
    EXPECT_EQ(reference,
              runMeasurementText(parallel.offlineOpt(workloads[0])));

    // offlineOptMany must match per-workload sweeps exactly.
    const auto many = parallel.offlineOptMany(workloads);
    ASSERT_EQ(many.size(), workloads.size());
    EXPECT_EQ(runMeasurementText(many[0]), reference);
    for (size_t w = 1; w < workloads.size(); ++w)
        EXPECT_EQ(runMeasurementText(many[w]),
                  runMeasurementText(loopOfflineOpt(workloads[w])));
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
