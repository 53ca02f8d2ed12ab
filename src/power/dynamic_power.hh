/**
 * @file
 * Dynamic (switching) power of the application cores and the uncore.
 *
 * Per-core switching power follows the classic CMOS form
 * P = C_eff * a * V^2 * f, where a is the task's switching-activity
 * factor scaled by the core's busy fraction. The uncore term covers the
 * shared L2 and interconnect and scales with L2 access traffic and the
 * bus clock.
 */

#ifndef DORA_POWER_DYNAMIC_POWER_HH
#define DORA_POWER_DYNAMIC_POWER_HH

#include "soc/soc.hh"

namespace dora
{

/** Capacitance-like coefficients of the dynamic power model. */
struct DynamicPowerConfig
{
    /** Effective switched capacitance per core (farads). */
    double coreCeff = 0.65e-9;

    /** Idle (clock-tree) activity floor when a core is clocked. */
    double idleActivity = 0.04;

    /** Energy per scaled L2 access (joules); covers L2 + interconnect. */
    double l2AccessEnergyJ = 0.6e-9;

    /** Uncore clock-tree capacitance term (farads, at bus clock). */
    double uncoreCeff = 0.25e-9;

    bool operator==(const DynamicPowerConfig &) const = default;
};

/**
 * Evaluates dynamic power for one tick from the SoC tick summary.
 */
class DynamicPowerModel
{
  public:
    explicit DynamicPowerModel(const DynamicPowerConfig &config);

    /**
     * Core-rail dynamic power (W) over the tick summarized by @p s.
     * Includes per-core switching plus the uncore clock tree.
     */
    double corePower(const SocTickSummary &s) const;

    /**
     * Uncore traffic energy (J) for @p l2_accesses scaled L2 lookups.
     */
    double l2TrafficEnergyJ(double l2_accesses) const;

    const DynamicPowerConfig &config() const { return config_; }

  private:
    DynamicPowerConfig config_;
};

} // namespace dora

#endif // DORA_POWER_DYNAMIC_POWER_HH
