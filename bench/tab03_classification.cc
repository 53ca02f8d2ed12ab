/**
 * @file
 * Table III: workload classification.
 *
 * Pages are classed by solo load time at the top frequency (low < 2 s,
 * high > 2 s); co-run kernels by solo shared-L2 MPKI (low < 1,
 * medium 1-7, high > 7). Also reproduces the paper's footnote on the
 * powersave governor: at the minimum OPP load times blow out to many
 * seconds, which is why powersave is excluded from the comparisons.
 */

#include <iostream>

#include "bench_util.hh"
#include "browser/page_corpus.hh"
#include "runner/experiment.hh"

using namespace dora;

int
main(int argc, char **argv)
{
    cliRejectUnknownArgs(argc, argv, "tab03_classification", {"--trace"},
                         {"--exact-ticks"});
    ObsGuard obs(argc, argv);
    ExperimentRunner runner;
    const size_t fmax = runner.freqTable().maxIndex();

    TextTable pages({"page", "training?", "load time s (alone, 2.27 "
                     "GHz)", "class", "expected", "ok"});
    int correct = 0;
    for (const auto &page : PageCorpus::all()) {
        const RunMeasurement m =
            runner.runAtFrequency(WorkloadSets::alone(page), fmax);
        const PageComplexity cls = m.loadTimeSec < 2.0
            ? PageComplexity::Low : PageComplexity::High;
        pages.beginRow();
        pages.add(page.name);
        pages.add(std::string(page.trainingSet ? "train" : "test"));
        pages.add(m.loadTimeSec, 3);
        pages.add(std::string(cls == PageComplexity::Low ? "low"
                                                         : "high"));
        pages.add(std::string(
            page.expectedClass == PageComplexity::Low ? "low" : "high"));
        const bool ok = cls == page.expectedClass;
        pages.add(std::string(ok ? "yes" : "NO"));
        correct += ok;
    }
    emitTable("tab03_pages", "Table III — web pages by load time", pages);
    std::cout << correct << "/18 pages in their declared class\n";

    TextTable kernels({"kernel", "domain", "solo L2 MPKI", "class",
                       "expected", "ok"});
    int kcorrect = 0;
    for (const auto &spec : KernelCatalog::all()) {
        const RunMeasurement m = runner.runAtFrequency(
            WorkloadSets::kernelOnly(spec), fmax);
        const MemIntensity cls = classifyMpki(m.meanL2Mpki);
        kernels.beginRow();
        kernels.add(spec.name);
        kernels.add(spec.domain);
        kernels.add(m.meanL2Mpki, 2);
        kernels.add(std::string(memIntensityName(cls)));
        kernels.add(std::string(memIntensityName(spec.expectedClass)));
        const bool ok = cls == spec.expectedClass;
        kernels.add(std::string(ok ? "yes" : "NO"));
        kcorrect += ok;
    }
    emitTable("tab03_kernels",
              "Table III — co-run applications by L2 MPKI", kernels);
    std::cout << kcorrect << "/9 kernels in their declared class\n";

    // Powersave footnote (paper Section IV-A, footnote 4).
    TextTable slow({"page", "powersave load time s"});
    for (const char *name : {"alipay", "reddit", "aliexpress"}) {
        PowersaveGovernor governor;
        const RunMeasurement m = runner.run(
            WorkloadSets::combo(PageCorpus::byName(name),
                                MemIntensity::Medium),
            governor, runner.freqTable().minIndex());
        slow.beginRow();
        slow.add(name);
        slow.add(m.loadTimeSec, 2);
    }
    emitTable("tab03_powersave",
              "Footnote — why powersave is excluded", slow);
    return 0;
}
