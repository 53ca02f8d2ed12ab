/**
 * @file
 * Ablation (DESIGN.md section 5): sampled-address-stream density.
 *
 * The simulator walks a 1/256 sample of each task's reference stream
 * through the real cache hierarchy. This bench sweeps the sampling
 * ratio and shows the measured behaviour (load time, interference
 * delta, MPKI classification) is stable across densities — i.e. the
 * published results are not an artifact of the default ratio.
 */

#include <iostream>

#include "bench_util.hh"
#include "browser/page_corpus.hh"
#include "runner/experiment.hh"

using namespace dora;

int
main(int argc, char **argv)
{
    cliRejectUnknownArgs(argc, argv, "abl_sampling_ratio", {"--trace"},
                         {"--exact-ticks"});
    ObsGuard obs(argc, argv);
    TextTable t({"sampling ratio", "reddit alone s", "reddit +high s",
                 "interference %", "backprop MPKI", "run cost (samples"
                 "/tick cap)"});
    for (double denom : {1024.0, 512.0, 256.0, 128.0}) {
        ExperimentConfig config;
        config.soc.coreTiming.samplingRatio = 1.0 / denom;
        ExperimentRunner runner(config);
        const size_t fmax = runner.freqTable().maxIndex();
        const WebPage &reddit = PageCorpus::byName("reddit");

        const RunMeasurement alone = runner.runAtFrequency(
            WorkloadSets::alone(reddit), fmax);
        const RunMeasurement high = runner.runAtFrequency(
            WorkloadSets::combo(reddit, MemIntensity::High), fmax);
        const RunMeasurement kernel = runner.runAtFrequency(
            WorkloadSets::kernelOnly(KernelCatalog::byName("backprop")),
            fmax);

        t.beginRow();
        t.add("1/" + formatFixed(denom, 0));
        t.add(alone.loadTimeSec, 3);
        t.add(high.loadTimeSec, 3);
        t.add(100.0 * (high.loadTimeSec / alone.loadTimeSec - 1.0), 1);
        t.add(kernel.meanL2Mpki, 2);
        t.add(static_cast<int64_t>(
            config.soc.coreTiming.maxSamples));
    }
    emitTable("abl_sampling", "Ablation — address-stream sampling "
                              "density", t);
    std::cout << "\nExpected shape: load times and the interference "
                 "delta move only mildly with density; the MPKI class "
                 "(high > 7) is preserved at every ratio.\n";
    return 0;
}
