/**
 * @file
 * Offline training pipeline (paper Sections III-A/B and IV-C).
 *
 * Reproduces the paper's methodology end to end on the simulated
 * device:
 *   1. idle characterization across a thermal-chamber ambient sweep,
 *      then a non-linear (Levenberg-Marquardt) fit of the Liao leakage
 *      parameters from the (voltage, temperature, power) samples;
 *   2. measurement of every Webpage-Inclusive workload combination at
 *      a set of pinned frequencies covering all memory-bus groups —
 *      420 measurements ("over 300" in the paper);
 *   3. least-squares fits: piece-wise interaction surface for load
 *      time, piece-wise linear surface for non-leakage power (measured
 *      power minus fitted leakage).
 *
 * Training is expensive (hundreds of full page-load simulations), so
 * trainCached() persists the bundle next to the binary and reuses it
 * when the format version matches.
 */

#ifndef DORA_DORA_TRAINER_HH
#define DORA_DORA_TRAINER_HH

#include <string>
#include <vector>

#include "dora/model_bundle.hh"
#include "model/gauss_newton.hh"
#include "runner/experiment.hh"

namespace dora
{

/** Trainer options. */
struct TrainerConfig
{
    ExperimentConfig experiment;

    /**
     * OPP indices to measure at; empty selects the default set of ten
     * frequencies spanning all four memory-bus groups.
     */
    std::vector<size_t> trainingFreqIndices;

    /** Thermal-chamber ambients for the leakage characterization. */
    std::vector<double> chamberAmbientsC = {15.0, 25.0, 35.0, 45.0,
                                            55.0};

    /**
     * Ridge strengths (on z-scored designs). The interaction surface
     * has ~46 terms against 14 distinct pages, so the time model needs
     * real shrinkage to generalize to held-out pages; the linear power
     * surface barely needs any.
     */
    double timeRidge = 0.5;
    double powerRidge = 1e-4;

    /**
     * Cap on the number of Webpage-Inclusive workloads measured
     * (0 = all 42). Reduced configurations are for fast integration
     * tests only — production training uses the full set.
     */
    size_t maxTrainingWorkloads = 0;

    /**
     * Threads for the measurement campaign and the idle grid
     * (0 = defaultJobCount()). Results are bit-identical at every job
     * count, so this field is deliberately excluded from
     * trainingConfigHash(): a bundle trained at any parallelism stays
     * cache-valid.
     */
    unsigned jobs = 0;  // dora:hash-exclude(bit-identical at any job count)

    /**
     * Inert: the only accepted value is 1, and Trainer fatal()s on any
     * other. Its only caller is benchmark/rounds.cc, and it goes with
     * that line.
     */
    unsigned lanes = 1;  // dora:hash-exclude(inert, always 1)
};

/** One (features -> targets) observation from a measurement run. */
struct TrainingSample
{
    std::vector<double> x;     //!< Table I feature vector
    double busMhz = 0.0;
    double voltage = 0.0;
    double loadTimeSec = 0.0;  //!< time-model target
    double meanPowerW = 0.0;   //!< raw power (leakage not yet removed)
    double meanTempC = 0.0;
};

/** Summary of one training invocation. */
struct TrainingReport
{
    size_t numMeasurements = 0;
    size_t numIdleSamples = 0;
    double timeTrainMeanPctErr = 0.0;
    double powerTrainMeanPctErr = 0.0;
    double leakageRmseW = 0.0;
    size_t leakageIterations = 0;
    bool leakageConverged = false;
};

/**
 * Deterministic hash (FNV-1a over a canonical text rendering) of every
 * TrainerConfig field that shapes the trained coefficients. Stamped
 * into ModelBundle::configHash by train() and checked by trainCached():
 * a cache file trained under a different configuration (other ridge
 * strengths, reduced workload set, different measurement protocol) is
 * retrained instead of silently reused.
 */
uint64_t trainingConfigHash(const TrainerConfig &config);

/**
 * Trains a ModelBundle against the simulated device.
 */
class Trainer
{
  public:
    explicit Trainer(const TrainerConfig &config = {});

    /** Full pipeline; also fills report() and samples(). */
    ModelBundle train();

    /** Load @p path if fresh, else train() and save there. */
    ModelBundle trainCached(const std::string &path);

    /**
     * Measure (features, load time, power) samples for arbitrary
     * workloads at the given OPPs — used for held-out evaluation.
     */
    std::vector<TrainingSample>
    collectSamples(const std::vector<WorkloadSpec> &workloads,
                   const std::vector<size_t> &freq_indices);

    /**
     * Fit the six Liao leakage parameters from idle samples, after
     * subtracting the SoC-collapsed floor power @p floor_w (makes the
     * fit identifiable; see ExperimentRunner::socCollapsedFloorW()).
     */
    static GaussNewtonResult
    fitLeakage(const std::vector<IdleSample> &samples, double floor_w);

    /**
     * Group samples into per-bus-frequency datasets.
     * @param target 0 = load time, 1 = raw power, 2 = power minus the
     *               given fitted leakage
     */
    static std::vector<std::pair<double, Dataset>>
    datasetsByBus(const std::vector<TrainingSample> &samples, int target,
                  const LeakageParams *leakage = nullptr);

    /** The default ten training OPP indices for @p table. */
    static std::vector<size_t>
    defaultTrainingFreqs(const FreqTable &table);

    /** Samples collected by the last train() call. */
    const std::vector<TrainingSample> &samples() const
    {
        return samples_;
    }

    /** Report of the last train() call. */
    const TrainingReport &report() const { return report_; }

    const TrainerConfig &config() const { return config_; }

  private:
    TrainerConfig config_;
    ExperimentRunner runner_;
    std::vector<TrainingSample> samples_;
    TrainingReport report_;
};

} // namespace dora

#endif // DORA_DORA_TRAINER_HH
