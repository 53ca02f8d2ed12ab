/**
 * @file
 * Unit tests for leakage, dynamic power, thermal, and device power.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "power/battery.hh"
#include "power/device_power.hh"
#include "power/dynamic_power.hh"
#include "power/leakage.hh"
#include "power/thermal.hh"

namespace dora
{
namespace
{

TEST(Leakage, ParamsRoundTripThroughArray)
{
    LeakageParams p;
    p.k1 = 1.0;
    p.k2 = 2.0;
    p.alpha = 3.0;
    p.beta = 4.0;
    p.gamma = 5.0;
    p.delta = 6.0;
    const LeakageParams q = LeakageParams::fromArray(p.toArray());
    EXPECT_DOUBLE_EQ(q.k1, 1.0);
    EXPECT_DOUBLE_EQ(q.delta, 6.0);
}

TEST(Leakage, IncreasesWithTemperature)
{
    const LeakageModel model = LeakageModel::msm8974Truth();
    const double cold = model.power(1.0, 30.0);
    const double hot = model.power(1.0, 70.0);
    EXPECT_GT(hot, 1.5 * cold);
}

TEST(Leakage, IncreasesWithVoltage)
{
    const LeakageModel model = LeakageModel::msm8974Truth();
    EXPECT_GT(model.power(1.1, 50.0), model.power(0.8, 50.0));
}

TEST(Leakage, TruthMagnitudesAreRealistic)
{
    const LeakageModel model = LeakageModel::msm8974Truth();
    // A few hundred mW warm, around a watt hot at full voltage —
    // the magnitude Section V-F attributes to leakage.
    EXPECT_GT(model.power(0.9, 40.0), 0.1);
    EXPECT_LT(model.power(0.9, 40.0), 0.6);
    EXPECT_GT(model.power(1.1, 67.0), 0.7);
    EXPECT_LT(model.power(1.1, 67.0), 1.6);
}

TEST(DynamicPower, ScalesWithVoltageSquaredAndFrequency)
{
    DynamicPowerModel model{DynamicPowerConfig{}};
    SocTickSummary s;
    s.perCore.resize(1);
    s.perCore[0].effectiveActivity = 0.5;
    s.voltage = 1.0;
    s.coreMhz = 1000.0;
    s.busMhz = 0.001;  // suppress the uncore term
    const double base = model.corePower(s);

    s.voltage = 2.0;
    const double v2 = model.corePower(s);
    EXPECT_NEAR(v2 / base, 4.0, 0.01);

    s.voltage = 1.0;
    s.coreMhz = 2000.0;
    const double f2 = model.corePower(s);
    EXPECT_NEAR(f2 / base, 2.0, 0.01);
}

TEST(DynamicPower, IdleCoresStillBurnClockTree)
{
    DynamicPowerModel model{DynamicPowerConfig{}};
    SocTickSummary s;
    s.perCore.resize(4);  // all idle
    s.voltage = 1.0;
    s.coreMhz = 1000.0;
    s.busMhz = 800.0;
    EXPECT_GT(model.corePower(s), 0.0);
}

TEST(DynamicPower, L2TrafficEnergy)
{
    DynamicPowerConfig config;
    DynamicPowerModel model(config);
    EXPECT_DOUBLE_EQ(model.l2TrafficEnergyJ(1e6),
                     1e6 * config.l2AccessEnergyJ);
}

TEST(Thermal, SteadyStateMatchesRC)
{
    ThermalConfig config;
    config.ambientC = 25.0;
    config.thermalResistance = 10.0;
    ThermalModel model(config);
    EXPECT_DOUBLE_EQ(model.steadyStateC(2.0), 45.0);
}

TEST(Thermal, ApproachesSteadyStateExponentially)
{
    ThermalConfig config;
    config.ambientC = 25.0;
    config.initialC = 25.0;
    config.thermalResistance = 10.0;
    config.heatCapacity = 1.0;  // tau = 10 s
    ThermalModel model(config);
    for (int i = 0; i < 10000; ++i)
        model.step(3.0, 1e-3);  // 10 s total = one time constant
    const double target = 25.0 + 30.0;
    const double expected = target - 30.0 * std::exp(-1.0);
    EXPECT_NEAR(model.temperatureC(), expected, 0.05);
}

TEST(Thermal, LargeStepIsStable)
{
    ThermalModel model{ThermalConfig{}};
    model.step(3.0, 1000.0);  // one giant step
    EXPECT_NEAR(model.temperatureC(), model.steadyStateC(3.0), 0.01);
}

TEST(Thermal, CoolsWithoutPower)
{
    ThermalConfig config;
    config.initialC = 60.0;
    ThermalModel model(config);
    for (int i = 0; i < 5000; ++i)
        model.step(0.0, 1e-2);
    EXPECT_NEAR(model.temperatureC(), config.ambientC, 0.5);
}

TEST(Thermal, AmbientChangeShiftsEquilibrium)
{
    ThermalModel model{ThermalConfig{}};
    model.setAmbientC(10.0);
    EXPECT_DOUBLE_EQ(model.ambientC(), 10.0);
    EXPECT_DOUBLE_EQ(model.steadyStateC(0.0), 10.0);
}

class DevicePowerTest : public ::testing::Test
{
  protected:
    DevicePowerTest()
        : power_(DevicePowerConfig{}, LeakageModel::msm8974Truth())
    {
    }

    SocTickSummary idleSummary()
    {
        SocTickSummary s;
        s.perCore.resize(4);
        s.voltage = 0.9;
        s.coreMhz = 960.0;
        s.busMhz = 333.0;
        return s;
    }

    DevicePower power_;
};

TEST_F(DevicePowerTest, BreakdownSumsToTotal)
{
    const PowerBreakdown brk = power_.step(idleSummary(), 1e-3);
    EXPECT_NEAR(brk.total(),
                brk.baseline + brk.coreDynamic + brk.l2Traffic +
                    brk.dram + brk.leakage + brk.dvfsSwitch,
                1e-12);
    EXPECT_DOUBLE_EQ(power_.lastPowerW(), brk.total());
}

TEST_F(DevicePowerTest, EnergyIntegrates)
{
    for (int i = 0; i < 1000; ++i)
        power_.step(idleSummary(), 1e-3);
    EXPECT_NEAR(power_.totalSeconds(), 1.0, 1e-9);
    EXPECT_NEAR(power_.totalEnergyJ(),
                power_.meanPowerW() * power_.totalSeconds(), 1e-9);
    EXPECT_GT(power_.meanPowerW(), power_.config().baselineW);
}

TEST_F(DevicePowerTest, ActivityRaisesPowerAndTemperature)
{
    SocTickSummary busy = idleSummary();
    busy.voltage = 1.1;
    busy.coreMhz = 2265.6;
    busy.busMhz = 800.0;
    for (auto &core : busy.perCore)
        core.effectiveActivity = 0.6;

    DevicePower idle_dev(DevicePowerConfig{},
                         LeakageModel::msm8974Truth());
    for (int i = 0; i < 2000; ++i) {
        power_.step(busy, 1e-3);
        idle_dev.step(idleSummary(), 1e-3);
    }
    EXPECT_GT(power_.meanPowerW(), idle_dev.meanPowerW() + 1.0);
    EXPECT_GT(power_.temperatureC(), idle_dev.temperatureC() + 3.0);
}

TEST_F(DevicePowerTest, LeakageFeedbackLoop)
{
    // Hold a hot workload; leakage share of the breakdown must grow as
    // the die heats up.
    SocTickSummary busy = idleSummary();
    busy.voltage = 1.1;
    busy.coreMhz = 2265.6;
    for (auto &core : busy.perCore)
        core.effectiveActivity = 0.6;
    const PowerBreakdown first = power_.step(busy, 1e-3);
    for (int i = 0; i < 20000; ++i)
        power_.step(busy, 1e-3);
    const PowerBreakdown later = power_.step(busy, 1e-3);
    EXPECT_GT(later.leakage, first.leakage * 1.3);
}

TEST_F(DevicePowerTest, ResetClearsIntegration)
{
    power_.step(idleSummary(), 1e-3);
    power_.reset();
    EXPECT_DOUBLE_EQ(power_.totalEnergyJ(), 0.0);
    EXPECT_DOUBLE_EQ(power_.totalSeconds(), 0.0);
    EXPECT_DOUBLE_EQ(power_.temperatureC(),
                     power_.config().thermal.initialC);
}

TEST(Thermal, JunctionClampKeepsRunawayFinite)
{
    // Exponential leakage fed back through a low-capacity RC node can
    // diverge; the junction clamp must keep temperatures finite.
    ThermalModel model{ThermalConfig{}};
    for (int i = 0; i < 100000; ++i)
        model.step(50.0, 1e-3);  // absurd sustained power
    EXPECT_LE(model.temperatureC(), model.config().maxJunctionC + 1e-9);
    EXPECT_TRUE(std::isfinite(model.temperatureC()));
}

TEST(Battery, Nexus5PackEnergy)
{
    BatterySpec battery;
    EXPECT_NEAR(battery.wattHours(), 8.74, 0.01);
}

TEST(Battery, LifeScalesInverselyWithPower)
{
    EXPECT_NEAR(batteryLifeHours(2.0), 4.37, 0.01);
    EXPECT_NEAR(batteryLifeHours(1.0), 2.0 * batteryLifeHours(2.0),
                1e-9);
}

TEST(Battery, PpwFactor)
{
    EXPECT_DOUBLE_EQ(batteryLifeFactorFromPpw(0.29, 0.25), 1.16);
}

} // namespace
} // namespace dora
