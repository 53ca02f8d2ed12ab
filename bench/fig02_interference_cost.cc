/**
 * @file
 * Figure 2: what co-scheduling costs the browser.
 *
 * (a) Measured load time of four pages at 2.27 GHz grows with the
 *     memory intensity of the co-scheduled application; some pages are
 *     pushed across the 3-second deadline.
 * (b) Additional energy E-delta incurred by running browser and
 *     co-runner together versus separately (paper: up to ~29%).
 *
 * Energy accounting for (b): all energies are taken above the idle
 * device floor so the always-on baseline is not double counted when
 * comparing one co-run against two separate runs:
 *   E'_B   browser-alone energy above idle, for its own load time;
 *   P'_O   co-runner-alone power above idle;
 *   E'_co  co-run energy above idle over the co-run load time t_co;
 *   E_delta = E'_co - E'_B - P'_O * t_co.
 * The reported percentage is E_delta over the total co-run energy,
 * matching the paper's E_delta / (E_B + E_O + E_delta).
 */

#include <iostream>

#include "bench_util.hh"
#include "browser/page_corpus.hh"
#include "runner/experiment.hh"

using namespace dora;

int
main(int argc, char **argv)
{
    cliRejectUnknownArgs(argc, argv, "fig02_interference_cost", {"--trace"},
                         {"--exact-ticks"});
    ObsGuard obs(argc, argv);
    ExperimentRunner runner;
    const size_t fmax = runner.freqTable().maxIndex();
    const char *pages[] = {"aliexpress", "hao123", "espn", "imgur"};
    const MemIntensity classes[] = {MemIntensity::Low,
                                    MemIntensity::Medium,
                                    MemIntensity::High};

    // Idle power floor at the max OPP.
    WorkloadSpec idle;
    const RunMeasurement idle_m = runner.runAtFrequency(idle, fmax);
    const double p_idle = idle_m.meanPowerW;

    TextTable a({"page", "alone s", "+low s", "+medium s", "+high s",
                 "meets 3 s at high?"});
    TextTable b({"page", "E_delta +low %", "+medium %", "+high %"});

    for (const char *name : pages) {
        const WebPage &page = PageCorpus::byName(name);

        const RunMeasurement alone =
            runner.runAtFrequency(WorkloadSets::alone(page), fmax);
        const double browser_net =
            alone.energyJ - p_idle * alone.loadTimeSec;

        a.beginRow();
        a.add(page.name);
        a.add(alone.loadTimeSec, 3);
        b.beginRow();
        b.add(page.name);

        double high_time = 0.0;
        for (MemIntensity cls : classes) {
            const WorkloadSpec combo = WorkloadSets::combo(page, cls);
            const RunMeasurement co = runner.runAtFrequency(combo, fmax);
            a.add(co.loadTimeSec, 3);
            high_time = co.loadTimeSec;

            const RunMeasurement kernel_alone = runner.runAtFrequency(
                WorkloadSets::kernelOnly(*combo.kernel), fmax);
            const double p_kernel =
                kernel_alone.meanPowerW - p_idle;
            const double co_net =
                co.energyJ - p_idle * co.loadTimeSec;
            const double e_delta = co_net - browser_net -
                p_kernel * co.loadTimeSec;
            b.add(100.0 * e_delta / co.energyJ, 1);
        }
        a.add(std::string(high_time <= 3.0 ? "yes" : "no"));
    }

    emitTable("fig02a", "Fig. 2(a) — load time vs co-runner intensity "
                        "(2.27 GHz)", a);
    emitTable("fig02b", "Fig. 2(b) — additional co-run energy cost", b);
    std::cout << "\nExpected shape: load times rise with intensity; "
                 "E_delta is positive and grows with intensity.\n";
    return 0;
}
