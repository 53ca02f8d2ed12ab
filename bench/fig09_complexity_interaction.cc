/**
 * @file
 * Figure 9: interaction of page complexity with interference
 * intensity, detailed for a low-complexity page (Amazon) and a
 * high-complexity page (IMDB).
 *
 * Paper shape: Amazon's fD is very low, its fE mid-to-high, so DORA
 * behaves like EE and wins big PPW (up to ~27%); IMDB's fD is near the
 * top, so DORA behaves like DL with modest gains (1-10%); both fD and
 * load time shift upward as co-runner intensity grows.
 */

#include <iostream>

#include "bench_util.hh"
#include "browser/page_corpus.hh"
#include "harness/comparison.hh"

using namespace dora;

namespace
{

void
detail(ComparisonHarness &harness, const char *page_name)
{
    const WebPage &page = PageCorpus::byName(page_name);
    TextTable t({"intensity", "governor", "mean GHz", "load time s",
                 "PPW vs interactive", "meets 3s"});
    for (MemIntensity cls : {MemIntensity::Low, MemIntensity::Medium,
                             MemIntensity::High}) {
        const WorkloadSpec w = WorkloadSets::combo(page, cls);
        const RunMeasurement base = harness.runOne(w, "interactive");
        for (const char *gov : {"performance", "DL", "EE", "DORA"}) {
            const RunMeasurement m = harness.runOne(w, gov);
            t.beginRow();
            t.add(std::string(memIntensityName(cls)));
            t.add(gov);
            t.add(m.meanFreqMhz / 1000.0, 2);
            t.add(m.loadTimeSec, 3);
            if (m.censored || base.censored || base.ppw <= 0.0)
                t.add("censored");
            else
                t.add(m.ppw / base.ppw, 3);
            t.add(std::string(m.meetsDeadline ? "yes" : "no"));
        }
    }
    emitTable(std::string("fig09_") + page_name,
              std::string("Fig. 9 — ") + page_name +
                  " under low/medium/high interference",
              t);
}

} // namespace

int
main(int argc, char **argv)
{
    cliRejectUnknownArgs(argc, argv, "fig09_complexity_interaction",
                         {"--trace"}, {"--exact-ticks"});
    ObsGuard obs(argc, argv);
    auto bundle = benchBundle();
    ComparisonHarness harness(ExperimentConfig{}, bundle);
    detail(harness, "amazon");
    detail(harness, "imdb");
    std::cout << "\nExpected shape: Amazon — DORA matches EE's chosen "
                 "frequency and gains large PPW; IMDB — DORA matches "
                 "DL near the top OPP with modest gains; fD creeps up "
                 "with intensity for both.\n";
    return 0;
}
