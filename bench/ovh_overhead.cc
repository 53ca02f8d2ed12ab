/**
 * @file
 * Section V-H: DORA's runtime overhead.
 *
 * Micro-benchmarks (google-benchmark) for the three operations DORA
 * performs: reading counters into a feature vector, evaluating the
 * models across all 14 OPPs (one Algorithm 1 decision), and the
 * bookkeeping of a model prediction. Then a table translating those
 * costs plus the measured DVFS switch counts into percent-of-load-time
 * overheads (paper: monitoring + decision < 1%, switching up to 3%).
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hh"
#include "browser/page_corpus.hh"
#include "dora/features.hh"
#include "dora/predictive_governor.hh"
#include "runner/experiment.hh"

using namespace dora;

namespace
{

std::shared_ptr<const ModelBundle> g_bundle;

GovernorView
sampleView(const FreqTable &table, const WebPageFeatures &page)
{
    GovernorView v;
    v.nowSec = 1.0;
    v.freqIndex = table.maxIndex();
    v.freqTable = &table;
    v.l2Mpki = 8.0;
    v.corunUtilization = 0.9;
    v.temperatureC = 45.0;
    v.page = &page;
    v.deadlineSec = 3.0;
    return v;
}

void
BM_FeatureVectorBuild(benchmark::State &state)
{
    const WebPage &page = PageCorpus::byName("amazon");
    for (auto _ : state) {
        auto x = buildFeatureVector(page.features, 8.0, 2265.6, 800.0,
                                    0.9);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_FeatureVectorBuild);

void
BM_LoadTimePrediction(benchmark::State &state)
{
    const WebPage &page = PageCorpus::byName("amazon");
    const auto x =
        buildFeatureVector(page.features, 8.0, 2265.6, 800.0, 0.9);
    for (auto _ : state)
        benchmark::DoNotOptimize(g_bundle->predictLoadTime(x, 800.0));
}
BENCHMARK(BM_LoadTimePrediction);

void
BM_TotalPowerPrediction(benchmark::State &state)
{
    const WebPage &page = PageCorpus::byName("amazon");
    const auto x =
        buildFeatureVector(page.features, 8.0, 2265.6, 800.0, 0.9);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            g_bundle->predictTotalPower(x, 800.0, 1.1, 45.0));
}
BENCHMARK(BM_TotalPowerPrediction);

void
BM_DoraDecision(benchmark::State &state)
{
    const FreqTable table = FreqTable::msm8974();
    const WebPage &page = PageCorpus::byName("amazon");
    PredictiveGovernor dora = makeDora(g_bundle);
    GovernorView view = sampleView(table, page.features);
    for (auto _ : state)
        benchmark::DoNotOptimize(dora.decideFrequencyIndex(view));
}
BENCHMARK(BM_DoraDecision);

void
BM_InteractiveDecision(benchmark::State &state)
{
    const FreqTable table = FreqTable::msm8974();
    const WebPage &page = PageCorpus::byName("amazon");
    InteractiveGovernor interactive;
    GovernorView view = sampleView(table, page.features);
    view.totalUtilization = 0.95;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            interactive.decideFrequencyIndex(view));
}
BENCHMARK(BM_InteractiveDecision);

void
printOverheadTable()
{
    ExperimentRunner runner;
    const double switch_penalty =
        runner.config().soc.freqSwitchPenaltySec;
    // A conservative decision cost (measured above, typically ~1 us;
    // use 10 us to stay pessimistic like the paper's bound).
    const double decision_cost_sec = 10e-6;
    const double decision_interval = 0.1;

    TextTable t({"workload", "load time s", "switches",
                 "switching ovh %", "monitor+decide ovh %"});
    const std::pair<const char *, MemIntensity> picks[] = {
        {"amazon", MemIntensity::Medium},
        {"reddit", MemIntensity::High},
        {"espn", MemIntensity::Medium},
        {"aliexpress", MemIntensity::High},
    };
    for (const auto &[name, cls] : picks) {
        const WorkloadSpec w =
            WorkloadSets::combo(PageCorpus::byName(name), cls);
        PredictiveGovernor dora = makeDora(g_bundle);
        const RunMeasurement m = runner.run(w, dora);
        const double switching =
            100.0 * static_cast<double>(m.freqSwitches) *
            switch_penalty / m.loadTimeSec;
        const double monitor = 100.0 * decision_cost_sec /
            decision_interval;
        t.beginRow();
        t.add(w.label());
        t.add(m.loadTimeSec, 3);
        t.add(static_cast<int64_t>(m.freqSwitches));
        t.add(switching, 2);
        t.add(monitor, 2);
    }
    emitTable("ovh", "Section V-H — DORA overhead accounting", t);
    std::cout << "\nExpected shape: monitoring + decision well under "
                 "1%; switching overhead bounded by a few percent "
                 "(already included in every PPW result).\n";
}

} // namespace

int
main(int argc, char **argv)
{
    ObsGuard obs(argc, argv);
    benchmark::Initialize(&argc, argv);
    cliRejectUnknownArgs(argc, argv, "ovh_overhead", {"--trace"},
                         {"--exact-ticks"});
    g_bundle = benchBundle();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    printOverheadTable();
    return 0;
}
