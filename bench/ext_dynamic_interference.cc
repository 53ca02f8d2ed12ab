/**
 * @file
 * Extension experiment (paper Section V-D, "the adaptive nature of
 * DORA" + the Fig. 4 loop): interference that changes *during* the
 * page load.
 *
 * A heavy page loads while the co-runner executes a schedule — 0.8 s
 * of low-intensity kmeans, then high-intensity backprop. A static
 * frequency choice made for the first regime is wrong for the second;
 * DORA's periodic re-evaluation must see the MPKI step in X6 and move
 * the operating point. The decision trace below shows exactly that.
 */

#include <iostream>

#include "bench_util.hh"
#include "browser/page_corpus.hh"
#include "dora/predictive_governor.hh"
#include "runner/experiment.hh"
#include "workloads/phased_corun_task.hh"

using namespace dora;

int
main(int argc, char **argv)
{
    cliRejectUnknownArgs(argc, argv, "ext_dynamic_interference", {"--trace"},
                         {"--exact-ticks"});
    ObsGuard obs(argc, argv);
    auto bundle = benchBundle();
    ExperimentRunner runner;
    // A slightly relaxed target: the point here is adaptation, and
    // 3.2 s is feasible for imdb under the *mixed* schedule only if
    // the governor reacts to the regime change.
    runner.mutableConfig().deadlineSec = 3.2;
    const FreqTable &table = runner.freqTable();

    const WebPage &page = PageCorpus::byName("imdb");
    std::vector<CorunPhase> schedule = {
        {&KernelCatalog::byName("kmeans"), runner.config().warmupSec +
                                               0.8},
        {&KernelCatalog::byName("backprop"), 0.0},  // until the end
    };

    PhasedCorunTask corun(schedule, 7);
    PredictiveGovernor dora = makeDora(bundle);
    const RunMeasurement m = runner.runCustom(
        &page, &corun, "imdb+phased(kmeans->backprop)", dora);

    printBanner(std::cout, "Dynamic interference — DORA decision trace "
                           "(imdb, co-runner flips low -> high at "
                           "t=+0.8 s)");
    TextTable t({"t since load s", "L2 MPKI seen", "corun util",
                 "chosen GHz"});
    const double t0 = m.decisions.empty() ? 0.0 : m.decisions[0].tSec;
    for (const auto &d : m.decisions) {
        t.beginRow();
        t.add(d.tSec - t0, 2);
        t.add(d.l2Mpki, 2);
        t.add(d.corunUtil, 2);
        t.add(table.opp(d.freqIndex).coreMhz / 1000.0, 2);
    }
    emitTable("ext_dynamic", "decision trace", t);

    std::cout << "\nload time " << formatFixed(m.loadTimeSec, 3)
              << " s, deadline "
              << (m.meetsDeadline ? "met" : "missed") << ", "
              << m.freqSwitches << " DVFS transitions\n";

    // Reference: what a static offline choice for the *initial* regime
    // would have done.
    WorkloadSpec static_low = WorkloadSets::alone(page);
    static_low.kernel = &KernelCatalog::byName("kmeans");
    double best_ppw = 0.0;
    size_t static_opt = table.maxIndex();
    for (size_t f : table.paperSweepIndices()) {
        const RunMeasurement s = runner.runAtFrequency(static_low, f);
        if (s.meetsDeadline && s.ppw > best_ppw) {
            best_ppw = s.ppw;
            static_opt = f;
        }
    }
    PhasedCorunTask corun2(schedule, 7);
    FixedGovernor fixed(static_opt);
    const RunMeasurement stale = runner.runCustom(
        &page, &corun2, "imdb+phased(static)", fixed, static_opt);
    std::cout << "static fopt chosen for the low regime ("
              << formatFixed(table.opp(static_opt).coreMhz / 1000.0, 2)
              << " GHz): load time " << formatFixed(stale.loadTimeSec, 3)
              << " s, deadline "
              << (stale.meetsDeadline ? "met" : "MISSED") << "\n";
    std::cout << "\nExpected shape: DORA's chosen frequency steps up "
                 "when the MPKI column jumps; the stale static choice "
                 "is slower and can miss the deadline.\n";
    return 0;
}
