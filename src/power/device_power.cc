#include "power/device_power.hh"

#include "common/logging.hh"
#include "common/snapshot.hh"

namespace dora
{

DevicePower::DevicePower(const DevicePowerConfig &config,
                         const LeakageModel &leakage_truth)
    : config_(config), dynamic_(config.dynamic), leakage_(leakage_truth),
      thermal_(config.thermal)
{
}

PowerBreakdown
DevicePower::step(const SocTickSummary &summary, double dt_sec)
{
    if (dt_sec <= 0.0)
        panic("DevicePower::step: non-positive dt");

    PowerBreakdown brk;
    brk.baseline = config_.baselineW;
    brk.coreDynamic = dynamic_.corePower(summary);

    double l2_accesses = 0.0;
    for (const auto &core : summary.perCore)
        l2_accesses += core.l2Accesses;
    brk.l2Traffic = dynamic_.l2TrafficEnergyJ(l2_accesses) / dt_sec;

    brk.dram = summary.dramEnergyJ / dt_sec;
    brk.leakage = leakage_.power(summary.voltage,
                                 thermal_.temperatureC());
    brk.dvfsSwitch = summary.switchEnergyJ / dt_sec;

    lastPower_ = brk.total();
    totalEnergyJ_ += lastPower_ * dt_sec;
    totalSeconds_ += dt_sec;

    // Only on-die heat drives the junction temperature.
    const double soc_heat = brk.coreDynamic + brk.l2Traffic + brk.leakage;
    thermal_.step(soc_heat, dt_sec);
    return brk;
}

double
DevicePower::meanPowerW() const
{
    return totalSeconds_ > 0.0 ? totalEnergyJ_ / totalSeconds_ : 0.0;
}

void
DevicePower::reset()
{
    lastPower_ = 0.0;
    totalEnergyJ_ = 0.0;
    totalSeconds_ = 0.0;
    thermal_.reset();
}

void
DevicePower::snapshot(SnapshotWriter &w) const
{
    w.beginSection("dpow", 1);
    w.putDouble(lastPower_);
    w.putDouble(totalEnergyJ_);
    w.putDouble(totalSeconds_);
    thermal_.snapshot(w);
}

bool
DevicePower::tryRestore(SnapshotReader &r)
{
    if (!r.beginSection("dpow", 1))
        return false;
    double last_power, total_energy, total_seconds;
    if (!r.getDouble(&last_power) || !r.getDouble(&total_energy) ||
        !r.getDouble(&total_seconds) || !thermal_.tryRestore(r))
        return false;
    lastPower_ = last_power;
    totalEnergyJ_ = total_energy;
    totalSeconds_ = total_seconds;
    return true;
}

} // namespace dora
