/**
 * @file
 * ExperimentRunner: builds a fresh simulated Nexus 5, pins a workload
 * onto it, drives the chosen governor at its decision interval, and
 * measures the page-load window exactly the way the paper's DAQ +
 * instrumented-browser methodology does.
 *
 * Measurement protocol per run:
 *   1. construct SoC + device power at the requested ambient;
 *   2. warm up: the co-runner executes alone for warmupSec with the
 *      governor already in control;
 *   3. the page load starts; every metric below covers the window from
 *      load start to load completion (or the load-time wall);
 *   4. report load time, window energy, mean power, PPW = 1/(t x P),
 *      windowed L2 MPKI, co-runner utilization, temperatures, and DVFS
 *      switch counts.
 */

#ifndef DORA_RUNNER_EXPERIMENT_HH
#define DORA_RUNNER_EXPERIMENT_HH

#include <optional>
#include <string>
#include <vector>

#include "governor/governor.hh"
#include "power/device_power.hh"
#include "runner/workload.hh"
#include "sim/simulator.hh"
#include "soc/soc.hh"

namespace dora
{

class FaultInjector;

/** Per-run configuration. */
struct ExperimentConfig
{
    double deadlineSec = 3.0;   //!< QoS target handed to governors
    double warmupSec = 2.0;     //!< co-runner lead-in + thermal settle
    double dtSec = 1e-3;        //!< simulation tick
    double maxLoadSec = 15.0;   //!< wall for a single page load
    double measureSec = 1.0;    //!< window for page-less runs
    double ambientC = 25.0;     //!< room (or chamber) temperature
    /**
     * Die-over-ambient temperature at the start of each run: the
     * device is warm from prior use. With the fast junction node
     * (thermal tau ~1.3 s) the die then settles to the steady state of
     * the chosen operating point within the load, reproducing the
     * paper's 58-65 degC range at high frequency and room ambient.
     */
    double warmDieDeltaC = 20.0;
    /**
     * Fleet heterogeneity (src/fleet): per-device perturbation of the
     * stock Nexus 5. freqScale multiplies every OPP's core and bus
     * clock (silicon speed binning), voltageScale multiplies every
     * rail voltage (corner voltage binning — it shifts both dynamic
     * CV^2f power and the exponential leakage term), and
     * thermalResistanceScale multiplies the junction-to-ambient
     * thermal resistance (case, skin-contact and cooling spread).
     * All 1.0 (the default) is the paper-fidelity device; the scales
     * fold into experimentConfigHash() only when non-default so every
     * existing campaign hash and cached bundle is unaffected.
     */
    double freqScale = 1.0;
    double voltageScale = 1.0;
    double thermalResistanceScale = 1.0;
    SocConfig soc;
    DevicePowerConfig power;

    /**
     * Exact field-by-field equality, nested configs included (unlike
     * experimentConfigHash(), which skips stock-valued soc and power
     * fields). A NaN field never compares equal, not even to itself.
     */
    bool operator==(const ExperimentConfig &) const = default;
};

/** One governor decision, for traces (Fig. 4's periodic loop). */
struct DecisionRecord
{
    double tSec = 0.0;        //!< simulated time of the decision
    /** OPP granted by the actuator (== the request when fault-free). */
    size_t freqIndex = 0;
    /** OPP the governor asked for (before any actuator fault). */
    size_t requestedFreqIndex = 0;
    double l2Mpki = 0.0;      //!< X6 seen by the governor
    double corunUtil = 0.0;   //!< X9 seen by the governor
    /** True die temperature at the decision (not the sensor reading). */
    double temperatureC = 0.0;
};

/** Everything measured over one run's measurement window. */
struct RunMeasurement
{
    std::string workload;
    std::string governor;

    double loadTimeSec = 0.0;   //!< window length if page didn't finish
    bool pageFinished = false;
    bool meetsDeadline = false;
    /**
     * True when the run had a page that did not finish inside the
     * load-time wall: loadTimeSec is then the *window length*, a lower
     * bound on the real load time, not an observation of it. Censored
     * runs report ppw = 0 and must be counted, never averaged —
     * otherwise a governor that fails a page outright can score better
     * than one that finishes it late.
     */
    bool censored = false;

    double energyJ = 0.0;       //!< device energy over the window
    double meanPowerW = 0.0;
    double ppw = 0.0;           //!< (1/loadTime)/meanPower = 1/energy

    double meanL2Mpki = 0.0;    //!< X6 averaged over the window
    double meanCorunUtil = 0.0; //!< X9 averaged over the window
    double meanTempC = 0.0;
    double peakTempC = 0.0;
    double meanFreqMhz = 0.0;   //!< time-weighted
    uint64_t freqSwitches = 0;

    /** Seconds spent at each OPP during the window (index-aligned). */
    std::vector<double> freqResidencySec;

    /** Governor decisions taken during the window, in order. */
    std::vector<DecisionRecord> decisions;

    /** Mean power breakdown over the window (component means, W). */
    PowerBreakdown meanBreakdown;
};

/** One idle-power observation for leakage fitting. */
struct IdleSample
{
    double voltage = 0.0;
    double tempC = 0.0;
    double powerW = 0.0;
};

/**
 * Canonical bit-exact text rendering of a measurement: every double is
 * printed as a hex float (%a), so two measurements render identically
 * iff they are bit-identical. Used by the determinism tests to prove
 * that parallel sweeps reproduce the serial results exactly.
 */
std::string runMeasurementText(const RunMeasurement &m);

/** FNV-1a digest of runMeasurementText(). */
uint64_t runMeasurementDigest(const RunMeasurement &m);

/**
 * Hash of the measurement protocol: every ExperimentConfig scalar plus
 * a revision token that is bumped whenever the run recipe changes in a
 * way that alters results (e.g. the RNG stream layout). Recorded in
 * trace manifests and folded into the training-cache key.
 */
uint64_t experimentConfigHash(const ExperimentConfig &config);

/**
 * The DVFS table of the device @p config describes: the stock MSM8974
 * table with every OPP scaled by freqScale/voltageScale. Returns the
 * untouched stock table for the default (all-1.0) config.
 */
FreqTable deviceFreqTable(const ExperimentConfig &config);

/**
 * Runs workloads on freshly constructed simulated devices.
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(const ExperimentConfig &config = {});

    /** The DVFS table of the simulated device. */
    const FreqTable &freqTable() const { return freqTable_; }

    /**
     * Run @p workload under @p governor.
     * @param initial_freq  starting OPP (defaults to the governor's
     *                      first decision; training runs pin it)
     */
    RunMeasurement run(const WorkloadSpec &workload, Governor &governor,
                       std::optional<size_t> initial_freq = std::nullopt);

    /** Run @p workload pinned at OPP @p freq_index for the whole run. */
    RunMeasurement runAtFrequency(const WorkloadSpec &workload,
                                  size_t freq_index);

    /**
     * Run with a caller-provided co-scheduled task (e.g. a
     * PhasedCorunTask whose intensity changes mid-load). @p corun_task
     * may be null (page alone); @p page may be null (co-runner alone).
     */
    RunMeasurement runCustom(const WebPage *page, Task *corun_task,
                             const std::string &label,
                             Governor &governor,
                             std::optional<size_t> initial_freq =
                                 std::nullopt);

    /**
     * Thermal-chamber style idle characterization: sample idle device
     * power and die temperature at every OPP under each ambient
     * temperature. Feeds the leakage fit.
     *
     * Each (ambient, OPP) cell simulates an independent device, so the
     * grid is fanned out through parallelMap() on @p jobs threads
     * (0 = defaultJobCount()). Sample order is independent of the job
     * count: ambient-major, then OPP, then time.
     */
    std::vector<IdleSample>
    idleCharacterization(const std::vector<double> &ambients_c,
                         double settle_sec = 2.0,
                         double sample_sec = 0.5,
                         unsigned jobs = 1);

    /**
     * Device power with the SoC power-collapsed (cores and caches
     * gated, leakage rail off): display/radio baseline plus DRAM
     * self-refresh. This is the "floor" measurement every phone power
     * lab takes first; subtracting it from idle samples makes the
     * leakage fit well-posed (a constant offset is otherwise
     * indistinguishable from the k2*e^(gamma*v+delta) term).
     */
    double socCollapsedFloorW() const;

    const ExperimentConfig &config() const { return config_; }

    /** Mutable config access (deadline sweeps, ambient studies). */
    ExperimentConfig &mutableConfig() { return config_; }

    /**
     * Attach a fault injector to the signal path of subsequent runs
     * (non-owning; pass nullptr to detach). The injector is reset at
     * the start of every run so each run sees the same deterministic
     * fault stream. An injector with an all-zero schedule is a strict
     * no-op: runs reproduce bit-identical measurements.
     */
    void setFaultInjector(FaultInjector *injector)
    {
        faultInjector_ = injector;
    }

    /** The currently attached injector (nullptr when none). */
    FaultInjector *faultInjector() const { return faultInjector_; }

  private:
    ExperimentConfig config_;
    FreqTable freqTable_;
    FaultInjector *faultInjector_ = nullptr;
};

} // namespace dora

#endif // DORA_RUNNER_EXPERIMENT_HH
