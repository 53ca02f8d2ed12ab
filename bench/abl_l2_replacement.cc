/**
 * @file
 * Ablation (DESIGN.md section 5): shared-L2 replacement policy.
 *
 * The paper's interference mechanism is eviction of browser lines by
 * the co-runner in the shared L2. This ablation swaps the L2's
 * replacement policy (true LRU, the hardware-cheaper tree-PLRU, and
 * random) and re-measures the motivation experiment: load time and the
 * interference delta must be qualitatively insensitive to the policy
 * choice, i.e. the paper's story does not hinge on exact LRU.
 */

#include <iostream>

#include "bench_util.hh"
#include "browser/page_corpus.hh"
#include "runner/experiment.hh"

using namespace dora;

int
main(int argc, char **argv)
{
    cliRejectUnknownArgs(argc, argv, "abl_l2_replacement", {"--trace"},
                         {"--exact-ticks"});
    ObsGuard obs(argc, argv);
    TextTable t({"L2 policy", "reddit alone s", "reddit +high s",
                 "interference %", "espn+med s", "backprop MPKI"});
    for (ReplacementPolicy policy : {ReplacementPolicy::Lru,
                                     ReplacementPolicy::TreePlru,
                                     ReplacementPolicy::Random}) {
        ExperimentConfig config;
        config.soc.mem.l2.policy = policy;
        ExperimentRunner runner(config);
        const size_t fmax = runner.freqTable().maxIndex();
        const WebPage &reddit = PageCorpus::byName("reddit");

        const RunMeasurement alone = runner.runAtFrequency(
            WorkloadSets::alone(reddit), fmax);
        const RunMeasurement high = runner.runAtFrequency(
            WorkloadSets::combo(reddit, MemIntensity::High), fmax);
        const RunMeasurement espn = runner.runAtFrequency(
            WorkloadSets::combo(PageCorpus::byName("espn"),
                                MemIntensity::Medium),
            fmax);
        const RunMeasurement kernel = runner.runAtFrequency(
            WorkloadSets::kernelOnly(KernelCatalog::byName("backprop")),
            fmax);

        t.beginRow();
        t.add(replacementPolicyName(policy));
        t.add(alone.loadTimeSec, 3);
        t.add(high.loadTimeSec, 3);
        t.add(100.0 * (high.loadTimeSec / alone.loadTimeSec - 1.0), 1);
        t.add(espn.loadTimeSec, 3);
        t.add(kernel.meanL2Mpki, 2);
    }
    emitTable("abl_l2_repl", "Ablation — shared-L2 replacement policy",
              t);
    std::cout << "\nExpected shape: all three policies preserve the "
                 "interference effect and the MPKI classification; "
                 "random is mildly worse for the streaming co-runner.\n";
    return 0;
}
