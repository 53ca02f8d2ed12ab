/**
 * @file
 * Figure 5 + Section V-A: prediction accuracy of the performance and
 * power models.
 *
 * Reproduces the full methodology: train the three response surfaces
 * (linear / interaction / quadratic, paper Eqs. 2-4) on the 42
 * Webpage-Inclusive workloads, pick the paper's choices (interaction
 * for time, linear for power), and report the error CDFs over the
 * held-out Webpage-Neutral workloads.
 *
 * Paper numbers for reference: load-time model ~2.5% average error
 * (87.5% of pages < 5%, max 10%); power model ~4% average error (75%
 * of pages < 5%, 90% < 10%).
 */

#include <iostream>

#include "bench_util.hh"
#include "dora/features.hh"
#include "dora/trainer.hh"
#include "stats/cdf.hh"

using namespace dora;

namespace
{

double
meanAbsPct(const std::vector<double> &errors)
{
    double sum = 0.0;
    for (double e : errors)
        sum += e;
    return errors.empty() ? 0.0 : sum / static_cast<double>(errors.size());
}

} // namespace

int
main(int argc, char **argv)
{
    cliRejectUnknownArgs(argc, argv, "fig05_model_accuracy",
                         {"--jobs", "--trace"}, {"--exact-ticks"});
    ObsGuard obs(argc, argv);
    TrainerConfig trainer_config;
    trainer_config.jobs = benchJobs(argc, argv);
    Trainer trainer(trainer_config);
    // Train normally (also produces the leakage fit used below).
    ModelBundle bundle = trainer.trainCached(defaultBundleCachePath());
    const auto &train_samples = trainer.samples().empty()
        ? trainer.collectSamples(
              WorkloadSets::webpageInclusive(),
              Trainer::defaultTrainingFreqs(FreqTable::msm8974()))
        : trainer.samples();
    const auto test_samples = trainer.collectSamples(
        WorkloadSets::webpageNeutral(),
        Trainer::defaultTrainingFreqs(FreqTable::msm8974()));

    // --- Response-surface comparison (Section V-A). ---
    TextTable kinds({"target", "surface", "train err %", "test err %"});
    for (int target : {0, 2}) {
        for (SurfaceKind kind : {SurfaceKind::Linear,
                                 SurfaceKind::Interaction,
                                 SurfaceKind::Quadratic}) {
            PiecewiseSurface pw(kind, kNumFeatures);
            const double ridge = target == 0 ? 0.1 : 1e-4;
            for (const auto &[bus, data] : Trainer::datasetsByBus(
                     train_samples, target, &bundle.leakage))
                pw.fitGroup(bus, data, ridge);

            auto eval = [&](const std::vector<TrainingSample> &set) {
                std::vector<double> errors;
                for (const auto &s : set) {
                    const double truth = target == 0
                        ? s.loadTimeSec
                        : s.meanPowerW -
                            LeakageModel(bundle.leakage)
                                .power(s.voltage, s.meanTempC);
                    const double pred = pw.predict(s.x, s.busMhz);
                    errors.push_back(std::abs(pred - truth) /
                                     std::max(1e-9, std::abs(truth)));
                }
                return 100.0 * meanAbsPct(errors);
            };
            kinds.beginRow();
            kinds.add(std::string(target == 0 ? "load time"
                                              : "power (non-leakage)"));
            kinds.add(std::string(surfaceKindName(kind)));
            kinds.add(eval(train_samples), 2);
            kinds.add(eval(test_samples), 2);
        }
    }
    emitTable("fig05_kinds",
              "Section V-A — response-surface comparison", kinds);

    // --- Error CDFs for the chosen models (Fig. 5). ---
    EmpiricalCdf time_cdf, power_cdf;
    for (const auto &s : test_samples) {
        const double pt = bundle.predictLoadTime(s.x, s.busMhz);
        time_cdf.push(std::abs(pt - s.loadTimeSec) / s.loadTimeSec);
        const double pp = bundle.predictTotalPower(
            s.x, s.busMhz, s.voltage, s.meanTempC);
        power_cdf.push(std::abs(pp - s.meanPowerW) / s.meanPowerW);
    }
    time_cdf.seal();
    power_cdf.seal();

    auto cdf_table = [](const EmpiricalCdf &cdf) {
        TextTable t({"error <=", "fraction of samples"});
        for (double x : {0.01, 0.02, 0.05, 0.10, 0.15, 0.20}) {
            t.beginRow();
            t.add(100.0 * x, 0);
            t.add(cdf.fractionAtOrBelow(x), 3);
        }
        return t;
    };
    emitTable("fig05_time",
              "Fig. 5(a) — load-time model error CDF (held-out pages)",
              cdf_table(time_cdf));
    std::cout << "load-time model:   mean "
              << formatFixed(100.0 * time_cdf.mean(), 2) << "%, max "
              << formatFixed(100.0 * time_cdf.max(), 2)
              << "%  (paper: 2.5% mean, 10% max; accuracy 97.5%)\n";

    emitTable("fig05_power",
              "Fig. 5(b) — power model error CDF (held-out pages)",
              cdf_table(power_cdf));
    std::cout << "power model:       mean "
              << formatFixed(100.0 * power_cdf.mean(), 2) << "%, max "
              << formatFixed(100.0 * power_cdf.max(), 2)
              << "%  (paper: 4% mean; accuracy 96%)\n";

    std::cout << "\nExpected shape: interaction/quadratic beat linear "
                 "for load time; all three are close for power; error "
                 "CDFs concentrate below ~10%.\n";
    return 0;
}
