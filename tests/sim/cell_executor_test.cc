/**
 * @file
 * Contracts of the cell executor (sim/cell_executor.hh) that the
 * harness, trainer and fleet suites cannot reach on their own: unit
 * results reach the consumer in unit order on every tier, 0 resolves
 * to the process defaults, and a unit whose worker dies on every
 * attempt is quarantined and recomputed in-process — with the grid
 * still bit-identical to the in-process tier.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/lanes.hh"
#include "exec/thread_pool.hh"
#include "governor/governor.hh"
#include "obs/metrics.hh"
#include "sim/cell_executor.hh"
#include "workloads/kernel.hh"

namespace dora
{
namespace
{

/** Kernel-only cells (no page => short 1 s windows), two governors. */
RunCell
cheapCell(size_t i)
{
    static const char *const kernels[] = {"kmeans", "srad2"};
    const WorkloadSpec w = WorkloadSets::kernelOnly(
        KernelCatalog::byName(kernels[(i / 2) % 2]));
    std::unique_ptr<Governor> governor;
    if (i % 2 == 0)
        governor = std::make_unique<InteractiveGovernor>();
    else
        governor = std::make_unique<OndemandGovernor>();
    return makeRunCell(ExperimentConfig{}, w.page, w.kernel, w.label(),
                       std::move(governor));
}

std::vector<std::string>
texts(const std::vector<RunMeasurement> &ms)
{
    std::vector<std::string> out;
    for (const RunMeasurement &m : ms)
        out.push_back(runMeasurementText(m));
    return out;
}

TEST(CellExecutor, ZeroResolvesToProcessDefaults)
{
    const CellExecutor executor(CellTiers{});
    EXPECT_EQ(executor.tiers().jobs, defaultJobCount());
    EXPECT_EQ(executor.tiers().lanes, defaultLaneCount());
    EXPECT_EQ(executor.tiers().workers, 0u);
}

TEST(CellExecutor, UnitsReachTheConsumerInUnitOrder)
{
    // Early units sleep longest, so on four threads the late units
    // finish first and must wait in the sink.
    const size_t n = 24;
    CellTiers tiers;
    tiers.jobs = 4;
    const CellExecutor executor(tiers);
    std::vector<size_t> order;
    executor.forEachUnit<size_t>(
        n,
        [n](size_t u) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(200 * (n - u)));
            return u * u;
        },
        [&](size_t u, size_t &&value) {
            EXPECT_EQ(value, u * u);
            order.push_back(u);
        },
        {}, CellCampaign{});
    ASSERT_EQ(order.size(), n);
    for (size_t u = 0; u < n; ++u)
        EXPECT_EQ(order[u], u);
}

TEST(CellExecutor, QuarantinedUnitIsRecomputedBitIdentical)
{
    const size_t n = 4;
    CellTiers in_process;
    in_process.jobs = 1;
    in_process.lanes = 2;
    const auto reference = texts(
        CellExecutor(in_process).measure(n, cheapCell, CellCampaign{}));

    // Cell 1 kills its worker on every attempt; only the parent can
    // build it, so its lane batch (unit 0) must be quarantined and
    // recomputed in-process.
    const pid_t parent = ::getpid();
    CellTiers proc = in_process;
    proc.workers = 2;
    CellCampaign campaign;
    campaign.name = "test";
    MetricCounter &quarantined =
        MetricsRegistry::global().counter("proc.quarantined_units");
    const uint64_t quarantined_before = quarantined.value();
    const auto recovered = texts(CellExecutor(proc).measure(
        n,
        [parent](size_t i) {
            if (i == 1 && ::getpid() != parent)
                ::raise(SIGKILL);
            return cheapCell(i);
        },
        campaign));
    EXPECT_EQ(quarantined.value() - quarantined_before, 1u);
    ASSERT_EQ(reference.size(), recovered.size());
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(reference[i], recovered[i]) << "cell " << i;
}

} // namespace
} // namespace dora
