/**
 * @file
 * Figure 10 + Section V-F: the impact of leakage power on the fopt
 * decision.
 *
 * (a) DORA vs DORA_no_lkg (frequency selection from the non-leakage
 *     component only) on Amazon + medium intensity — ignoring the
 *     temperature-dependent leakage costs ~10% energy efficiency in
 *     the paper.
 * (b) Device power vs frequency at room ambient vs a cold ambient:
 *     at high frequency the hot die leaks enough to shift fopt down
 *     (paper: 1.9 -> 1.7 GHz; die temperature 58 -> 65 degC).
 */

#include <iostream>
#include <memory>

#include "bench_util.hh"
#include "browser/page_corpus.hh"
#include "harness/comparison.hh"

using namespace dora;

int
main(int argc, char **argv)
{
    cliRejectUnknownArgs(argc, argv, "fig10_leakage_impact", {"--trace"},
                         {"--exact-ticks"});
    ObsGuard obs(argc, argv);
    auto bundle = benchBundle();
    const WorkloadSpec w = WorkloadSets::combo(
        PageCorpus::byName("amazon"), MemIntensity::Medium);

    // --- (a) DORA vs DORA_no_lkg across ambients. ---
    // The leakage-aware decision reacts to the die temperature; the
    // blind variant cannot. Run both at a cool and a hot ambient.
    TextTable a({"ambient degC", "governor", "mean GHz", "load time s",
                 "PPW 1/J", "mean die degC"});
    double ppw_full_hot = 0.0, ppw_nolkg_hot = 0.0;
    for (double ambient : {15.0, 45.0}) {
        ExperimentConfig cfg;
        cfg.ambientC = ambient;
        ComparisonHarness harness(cfg, bundle);
        for (const char *gov : {"DORA", "DORA_no_lkg"}) {
            const RunMeasurement m = harness.runOne(w, gov);
            a.beginRow();
            a.add(ambient, 0);
            a.add(gov);
            a.add(m.meanFreqMhz / 1000.0, 2);
            a.add(m.loadTimeSec, 3);
            a.add(m.ppw, 4);
            a.add(m.meanTempC, 1);
            if (ambient == 45.0)
                (std::string(gov) == "DORA" ? ppw_full_hot
                                            : ppw_nolkg_hot) = m.ppw;
        }
    }
    emitTable("fig10a", "Fig. 10(a) — leakage-aware vs leakage-blind "
                        "DORA (Amazon + medium)", a);
    std::cout << "hot-ambient PPW: leakage awareness buys "
              << formatFixed(
                     100.0 * (ppw_full_hot / ppw_nolkg_hot - 1.0), 1)
              << "% (paper: ~10%; see EXPERIMENTS.md on why this "
                 "device is flatter)\n";

    // --- (b) power vs frequency under three ambients. ---
    TextTable b({"core GHz", "P W (10C)", "peak C", "P W (25C)",
                 "peak C", "P W (45C)", "peak C", "PPW 10C", "PPW 25C",
                 "PPW 45C"});
    const double ambients[] = {10.0, 25.0, 45.0};
    size_t fopt[3] = {0, 0, 0};
    double best[3] = {0.0, 0.0, 0.0};
    std::vector<std::unique_ptr<ExperimentRunner>> runners;
    for (double ambient : ambients) {
        ExperimentConfig cfg;
        cfg.ambientC = ambient;
        runners.push_back(std::make_unique<ExperimentRunner>(cfg));
    }
    const FreqTable &table = runners[0]->freqTable();
    for (size_t f : table.paperSweepIndices()) {
        b.beginRow();
        b.add(table.opp(f).coreMhz / 1000.0, 2);
        RunMeasurement ms[3];
        for (int a_idx = 0; a_idx < 3; ++a_idx) {
            ms[a_idx] = runners[a_idx]->runAtFrequency(w, f);
            b.add(ms[a_idx].meanPowerW, 3);
            b.add(ms[a_idx].peakTempC, 1);
        }
        for (int a_idx = 0; a_idx < 3; ++a_idx) {
            b.add(ms[a_idx].ppw, 4);
            if (ms[a_idx].meetsDeadline && ms[a_idx].ppw > best[a_idx]) {
                best[a_idx] = ms[a_idx].ppw;
                fopt[a_idx] = f;
            }
        }
    }
    emitTable("fig10b", "Fig. 10(b) — power vs frequency across "
                        "ambients", b);
    for (int a_idx = 0; a_idx < 3; ++a_idx)
        std::cout << "fopt at " << ambients[a_idx] << " degC ambient: "
                  << formatFixed(table.opp(fopt[a_idx]).coreMhz / 1000.0,
                                 2)
                  << " GHz\n";
    std::cout << "\nExpected shape: power curves separate with ambient "
                 "at high frequency (leakage); the leakage-blind "
                 "variant tends to over-clock. On this simulated "
                 "device the measured PPW surface is flat around fopt, "
                 "so the mis-selection costs little energy — a "
                 "documented deviation from the paper's ~10%.\n";
    return 0;
}
