/**
 * @file
 * Lumped-RC thermal model of the SoC die.
 *
 * A single thermal node (the shared frequency/voltage domain of the
 * MSM8974) with thermal resistance R to ambient and heat capacity C:
 *
 *     C * dT/dt = P_soc - (T - T_ambient) / R
 *
 * Steady-state rise is P*R; the paper's measurement that die temperature
 * climbs from ~58 degC to ~65 degC between mid and high frequency at
 * room ambient (Section V-F) calibrates R. The closed loop
 * power -> temperature -> leakage -> power is what makes Figure 10
 * reproducible.
 */

#ifndef DORA_POWER_THERMAL_HH
#define DORA_POWER_THERMAL_HH

namespace dora
{

class SnapshotReader;
class SnapshotWriter;

/** Thermal RC parameters. */
struct ThermalConfig
{
    double ambientC = 25.0;          //!< ambient temperature (degC)
    double thermalResistance = 14.0; //!< K per watt to ambient
    double heatCapacity = 0.12;      //!< joules per kelvin (junction node)
    double initialC = 32.0;          //!< die temperature at power-on
    /**
     * Junction temperature ceiling (degC). Real SoCs enforce this with
     * hardware throttling; the clamp also keeps the exponential
     * leakage/RC feedback loop finite under unrealistically high
     * sustained power.
     */
    double maxJunctionC = 105.0;

    bool operator==(const ThermalConfig &) const = default;
};

/**
 * Integrates the die temperature forward in time.
 */
class ThermalModel
{
  public:
    explicit ThermalModel(const ThermalConfig &config);

    /** Advance by @p dt_sec with @p soc_power_w dissipated on die. */
    void step(double soc_power_w, double dt_sec);

    /** Current die temperature (degC). */
    double temperatureC() const { return tempC_; }

    /** Steady-state temperature for a constant @p soc_power_w. */
    double steadyStateC(double soc_power_w) const;

    /** Change the ambient temperature (e.g. Fig. 10b cold-room study). */
    void setAmbientC(double ambient_c);

    /** Current ambient temperature (degC). */
    double ambientC() const { return config_.ambientC; }

    /** Reset the die to the initial temperature. */
    void reset();

    /** Serialize die temperature and the (mutable) ambient. */
    void snapshot(SnapshotWriter &w) const;

    /** Restore a snapshot; false on section/version mismatch. */
    [[nodiscard]] bool tryRestore(SnapshotReader &r);

    const ThermalConfig &config() const { return config_; }

  private:
    ThermalConfig config_;
    double tempC_;
};

} // namespace dora

#endif // DORA_POWER_THERMAL_HH
