/**
 * @file
 * Whole-device power: the simulated stand-in for the National
 * Instruments DAQ of the paper's methodology (Section IV-A).
 *
 * Total device power = device baseline (display, radios, storage, PMIC)
 *                    + core dynamic power
 *                    + L2/interconnect traffic energy
 *                    + DRAM traffic + background power
 *                    + SoC leakage (temperature/voltage dependent)
 *                    + DVFS transition energy.
 *
 * Like the paper's measurements, energy-efficiency results computed on
 * top of this include the *whole device*, so improvements translate to
 * battery life. The die temperature is advanced each tick from the SoC
 * heat (dynamic + leakage), closing the leakage feedback loop.
 */

#ifndef DORA_POWER_DEVICE_POWER_HH
#define DORA_POWER_DEVICE_POWER_HH

#include "power/dynamic_power.hh"
#include "power/leakage.hh"
#include "power/thermal.hh"
#include "soc/soc.hh"

namespace dora
{

class SnapshotReader;
class SnapshotWriter;

/** Configuration of the whole-device power integrator. */
struct DevicePowerConfig
{
    DynamicPowerConfig dynamic;
    ThermalConfig thermal;
    /** Always-on device power: display at browsing brightness etc. */
    double baselineW = 1.35;

    bool operator==(const DevicePowerConfig &) const = default;
};

/** Power breakdown for one tick (watts; energies already divided by dt). */
struct PowerBreakdown
{
    double baseline = 0.0;
    double coreDynamic = 0.0;
    double l2Traffic = 0.0;
    double dram = 0.0;
    double leakage = 0.0;
    double dvfsSwitch = 0.0;

    /** Sum of all components. */
    double total() const
    {
        return baseline + coreDynamic + l2Traffic + dram + leakage +
            dvfsSwitch;
    }
};

/**
 * Integrates device power and die temperature tick by tick.
 */
class DevicePower
{
  public:
    DevicePower(const DevicePowerConfig &config,
                const LeakageModel &leakage_truth);

    /**
     * Account one tick.
     * @param summary  SoC tick outcome
     * @param dt_sec   tick duration
     * @return the power breakdown for the tick
     */
    PowerBreakdown step(const SocTickSummary &summary, double dt_sec);

    /** Die temperature (degC) after the last step. */
    double temperatureC() const { return thermal_.temperatureC(); }

    /** Total device power (W) during the last tick. */
    double lastPowerW() const { return lastPower_; }

    /** Cumulative device energy (J) since reset. */
    double totalEnergyJ() const { return totalEnergyJ_; }

    /** Cumulative time (s) since reset. */
    double totalSeconds() const { return totalSeconds_; }

    /** Mean device power (W) since reset. */
    double meanPowerW() const;

    /** Thermal model access (ambient sweeps, steady-state queries). */
    ThermalModel &thermal() { return thermal_; }
    const ThermalModel &thermal() const { return thermal_; }

    /** The ground-truth leakage physics. */
    const LeakageModel &leakageTruth() const { return leakage_; }

    /** Reset energy/time integration and die temperature. */
    void reset();

    /** Serialize integration state and the thermal model. */
    void snapshot(SnapshotWriter &w) const;

    /** Restore a snapshot; false on section/version mismatch. */
    [[nodiscard]] bool tryRestore(SnapshotReader &r);

    const DevicePowerConfig &config() const { return config_; }

  private:
    DevicePowerConfig config_;  // dora:snapshot-exclude(construction config)
    // dora:snapshot-exclude(stateless evaluator over config)
    DynamicPowerModel dynamic_;
    // dora:snapshot-exclude(stateless evaluator over config)
    LeakageModel leakage_;
    ThermalModel thermal_;
    double lastPower_ = 0.0;
    double totalEnergyJ_ = 0.0;
    double totalSeconds_ = 0.0;
};

} // namespace dora

#endif // DORA_POWER_DEVICE_POWER_HH
