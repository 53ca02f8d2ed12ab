/**
 * @file
 * Contracts of the cell executor (sim/cell_executor.hh) that the
 * harness, trainer and fleet suites cannot reach on their own: unit
 * results reach the consumer in unit order, 0 resolves to the process
 * default, and when executor cells run as units of the fleet's process
 * arm (exec/proc forEachUnitInWorkers), a unit whose worker dies on
 * every attempt is quarantined and recomputed in-process — with every
 * cell still bit-identical to the in-process run.
 *
 * The CellExecutorRiders suite pins down gangs (DESIGN.md §5m): a
 * rider dropped at any decision re-runs to its own measurement, and
 * cells that must run alone never ride.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "browser/page_corpus.hh"
#include "exec/proc/supervisor.hh"
#include "exec/thread_pool.hh"
#include "fault/fault_schedule.hh"
#include "governor/governor.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
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
    const CellExecutor executor(0);
    EXPECT_EQ(executor.jobs(), defaultJobCount());
}

TEST(CellExecutor, UnitsReachTheConsumerInUnitOrder)
{
    // Early units sleep longest, so on four threads the late units
    // finish first and must wait in the sink.
    const size_t n = 24;
    const CellExecutor executor(4);
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
        });
    ASSERT_EQ(order.size(), n);
    for (size_t u = 0; u < n; ++u)
        EXPECT_EQ(order[u], u);
}

/** One cell's measurement as a process-arm unit: its text rendering. */
struct CellText
{
    std::string text;

    std::string serialize() const { return text; }
    bool tryDeserialize(std::string_view bytes)
    {
        text = bytes;
        return true;
    }
};

TEST(CellExecutor, QuarantinedUnitIsRecomputedBitIdentical)
{
    const size_t n = 4;
    const auto reference =
        texts(CellExecutor(1).measure(n, cheapCell, CellCampaign{}));

    // Unit u runs cell u through the executor in a worker, as a fleet
    // chunk does. Cell 1 kills its worker on every attempt; only the
    // parent can build it, so its unit must be quarantined and
    // recomputed in-process.
    const pid_t parent = ::getpid();
    const CellExecutor executor(1);
    const std::function<CellText(size_t)> run_unit = [&](size_t u) {
        CellText unit;
        executor.runCells(
            u, 1,
            [parent](size_t i) {
                if (i == 1 && ::getpid() != parent)
                    ::raise(SIGKILL);
                return cheapCell(i);
            },
            [&unit](size_t, RunMeasurement &&m) {
                unit.text = runMeasurementText(m);
            });
        return unit;
    };
    MetricCounter &quarantined =
        MetricsRegistry::global().counter("proc.quarantined_units");
    const uint64_t quarantined_before = quarantined.value();
    std::vector<std::string> recovered;
    forEachUnitInWorkers<CellText>(
        n, 2, "", 0, "test", run_unit, [&](size_t u, CellText &&unit) {
            EXPECT_EQ(u, recovered.size());
            recovered.push_back(std::move(unit.text));
        });
    EXPECT_EQ(quarantined.value() - quarantined_before, 1u);
    ASSERT_EQ(reference.size(), recovered.size());
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(reference[i], recovered[i]) << "cell " << i;
}

/**
 * Requests an OPP pattern that wanders over the table, one entry per
 * decision; from decision `deviateAt` on it asks for the next OPP up
 * instead. Records which decisions saw a page.
 */
class ScriptGovernor : public Governor
{
  public:
    static constexpr size_t kNever = ~size_t{0};

    ScriptGovernor(std::string name, size_t deviate_at,
                   double interval_sec = 0.1)
        : name_(std::move(name)), deviateAt_(deviate_at),
          intervalSec_(interval_sec)
    {
    }

    const std::string &name() const override { return name_; }
    double decisionIntervalSec() const override { return intervalSec_; }

    size_t decideFrequencyIndex(const GovernorView &view) override
    {
        const size_t opps = view.freqTable->size();
        const size_t d = paged_.size();
        paged_.push_back(view.page != nullptr);
        const size_t base = (d * 5 + 3) % opps;
        return d < deviateAt_ ? base : (base + 1) % opps;
    }

    void reset() override { paged_.clear(); }

    /** Whether each decision so far saw a page. */
    const std::vector<bool> &paged() const { return paged_; }

  private:
    std::string name_;
    size_t deviateAt_;
    double intervalSec_;
    std::vector<bool> paged_;
};

/** A short paged run: 0.5 s warm-up, then at most 1.5 s of load. */
ExperimentConfig
riderConfig()
{
    ExperimentConfig config;
    config.warmupSec = 0.5;
    config.maxLoadSec = 1.5;
    return config;
}

WorkloadSpec
riderWorkload()
{
    return WorkloadSets::combo(PageCorpus::byName("alipay"),
                               MemIntensity::High);
}

/** @p cell's measurement from a plain RunContext loop of its own. */
std::string
aloneText(const RunCell &cell)
{
    RunContext ctx(cell.config, cell.params);
    while (!ctx.done())
        ctx.advance();
    return runMeasurementText(ctx.finish());
}

/** Rider counter deltas over one scope. */
struct RiderCounts
{
    MetricCounter &cells =
        MetricsRegistry::global().counter("runner.rider_cells");
    MetricCounter &drops =
        MetricsRegistry::global().counter("runner.rider_drops");
    const uint64_t cells0 = cells.value();
    const uint64_t drops0 = drops.value();

    uint64_t riders() const { return cells.value() - cells0; }
    uint64_t dropped() const { return drops.value() - drops0; }
};

/**
 * Run @p make over [0, n) through the executor and expect every cell
 * to match its own plain run.
 */
void
expectCellsMatchAlone(size_t n, const CellExecutor::CellFn &make)
{
    const auto got = texts(CellExecutor(1).measure(n, make, {}));
    ASSERT_EQ(got.size(), n);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(got[i], aloneText(make(i))) << "cell " << i;
}

TEST(CellExecutorRiders, RiderDroppedAtAnyDecisionMatchesItsOwnRun)
{
    // Two gangs of six cells, one per workload. In each, cell 0 leads
    // and the riders deviate at the first decision, mid-warm-up, the
    // first page decision and the last decision; the last one never
    // does. A leader run alone gives its decision count and its first
    // page decision.
    const ExperimentConfig config = riderConfig();
    const std::vector<WorkloadSpec> workloads = {
        riderWorkload(),
        WorkloadSets::combo(PageCorpus::byName("360"),
                            MemIntensity::Medium)};
    std::vector<std::vector<size_t>> deviate;
    for (const WorkloadSpec &w : workloads) {
        ScriptGovernor probe("script", ScriptGovernor::kNever);
        ExperimentRunner(config).run(w, probe);
        const std::vector<bool> &paged = probe.paged();
        const size_t first_page = static_cast<size_t>(
            std::find(paged.begin(), paged.end(), true) - paged.begin());
        const size_t last = paged.size() - 1;
        ASSERT_GT(first_page, 2u);
        ASSERT_LT(first_page, last);
        deviate.push_back({ScriptGovernor::kNever, 0, first_page / 2,
                           first_page, last, ScriptGovernor::kNever});
    }
    const size_t per_gang = deviate.front().size();
    const auto make = [&](size_t i) {
        const WorkloadSpec &w = workloads[i / per_gang];
        return makeRunCell(
            config, w.page, w.kernel, w.label(),
            std::make_unique<ScriptGovernor>(
                "script" + std::to_string(i % per_gang),
                deviate[i / per_gang][i % per_gang]));
    };
    const RiderCounts counts;
    expectCellsMatchAlone(workloads.size() * per_gang, make);
    // Per gang, pass 1 keeps the twin and drops four riders; each
    // later pass leads with the earliest deviator and drops the rest,
    // which all deviate later: 4 + 3 + 2 + 1 drops.
    EXPECT_EQ(counts.riders(), 2u);
    EXPECT_EQ(counts.dropped(), 20u);
}

TEST(CellExecutorRiders, CellsThatMustRunAloneDoNotRide)
{
    const ExperimentConfig config = riderConfig();
    const WorkloadSpec w = riderWorkload();
    const FaultSchedule faults = FaultSchedule::combined(99);
    TraceSession session(::testing::TempDir() + "rider_trace", "x");

    // Cell 1 is cell 0's twin (same script, another name) but for one
    // run input; with none it rides, which keeps this test honest.
    enum class Differ { Nothing, Trace, Fault, Interval, InitialOpp,
                        Config };
    for (const Differ differ :
         {Differ::Nothing, Differ::Trace, Differ::Fault,
          Differ::Interval, Differ::InitialOpp, Differ::Config}) {
        const auto make = [&](size_t i) {
            ExperimentConfig c = config;
            if (differ == Differ::Config && i == 1)
                c.ambientC += 1.0;
            const double interval =
                differ == Differ::Interval && i == 1 ? 0.05 : 0.1;
            std::optional<size_t> initial;
            if (differ == Differ::InitialOpp && i == 1)
                initial = 3;
            return makeRunCell(
                c, w.page, w.kernel, w.label(),
                std::make_unique<ScriptGovernor>(
                    "script" + std::to_string(i),
                    ScriptGovernor::kNever, interval),
                initial, differ == Differ::Fault ? &faults : nullptr);
        };
        TraceSession::install(differ == Differ::Trace ? &session
                                                      : nullptr);
        const RiderCounts counts;
        expectCellsMatchAlone(2, make);
        TraceSession::install(nullptr);
        EXPECT_EQ(counts.riders() + counts.dropped(),
                  differ == Differ::Nothing ? 1u : 0u)
            << "case " << static_cast<int>(differ);
    }
}

} // namespace
} // namespace dora
