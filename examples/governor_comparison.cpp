/**
 * @file
 * Compare every governor on one workload of your choice.
 *
 * Usage: governor_comparison [page] [low|medium|high|none] [deadline_s]
 * Defaults: reddit, high, 3.0.
 *
 * Demonstrates the comparison harness: the same workload is run under
 * interactive, performance, powersave, DL, EE, DORA, and the
 * offline-optimal pinned frequency, and the paper's headline metrics
 * (load time, mean power, PPW, deadline verdict) are printed for each.
 */

#include <iostream>
#include <limits>
#include <string>

#include "browser/page_corpus.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "harness/bundle_cache.hh"
#include "harness/comparison.hh"
#include "power/battery.hh"

using namespace dora;

int
main(int argc, char **argv)
{
    const std::string page_name = argc > 1 ? argv[1] : "reddit";
    const std::string intensity = argc > 2 ? argv[2] : "high";
    // A finite deadline > 0, checked before a bundle is loaded or
    // trained so that a typo fails at once.
    const double deadline = argc > 3
        ? cliParseDouble(argv[3], "deadline_s", 0.0,
                         std::numeric_limits<double>::max())
        : 3.0;
    if (deadline == 0.0)
        fatal("deadline_s: the deadline must be > 0 s");

    const WebPage &page = PageCorpus::byName(page_name);
    WorkloadSpec workload;
    if (intensity == "none") {
        workload = WorkloadSets::alone(page);
    } else {
        MemIntensity cls;
        if (intensity == "low")
            cls = MemIntensity::Low;
        else if (intensity == "medium")
            cls = MemIntensity::Medium;
        else if (intensity == "high")
            cls = MemIntensity::High;
        else
            fatal("unknown intensity '%s' (low|medium|high|none)",
                  intensity.c_str());
        workload = WorkloadSets::combo(page, cls);
    }

    std::cerr << "Loading DORA models (first run trains; later runs "
                 "reuse " << defaultBundleCachePath() << ")\n";
    auto bundle = loadOrTrainBundle();

    ExperimentConfig config;
    config.deadlineSec = deadline;
    ComparisonHarness harness(config, bundle);

    printBanner(std::cout, "Workload " + workload.label() +
                " (deadline " + formatFixed(deadline, 1) + " s)");
    TextTable t({"governor", "mean GHz", "load time s", "power W",
                 "PPW 1/J", "PPW vs interactive", "meets deadline",
                 "switches"});
    const RunMeasurement base = harness.runOne(workload, "interactive");
    auto add_row = [&](const RunMeasurement &m) {
        t.beginRow();
        t.add(m.governor);
        t.add(m.meanFreqMhz / 1000.0, 2);
        t.add(m.loadTimeSec, 3);
        t.add(m.meanPowerW, 3);
        t.add(m.ppw, 4);
        t.add(m.ppw / base.ppw, 3);
        t.add(std::string(m.meetsDeadline ? "yes" : "no"));
        t.add(static_cast<int64_t>(m.freqSwitches));
    };
    add_row(base);
    for (const char *gov :
         {"performance", "powersave", "ondemand", "DL", "EE", "DORA"})
        add_row(harness.runOne(workload, gov));
    add_row(harness.offlineOpt(workload));
    t.print(std::cout);

    const RunMeasurement dora = harness.runOne(workload, "DORA");
    std::cout << "\nBattery-life view (continuous browsing of this "
                 "workload):\n  interactive: "
              << formatFixed(batteryLifeHours(base.meanPowerW), 2)
              << " h   DORA: "
              << formatFixed(batteryLifeHours(dora.meanPowerW), 2)
              << " h   (x"
              << formatFixed(
                     batteryLifeFactorFromPpw(dora.ppw, base.ppw), 3)
              << " page loads per charge)\n";
    return 0;
}
