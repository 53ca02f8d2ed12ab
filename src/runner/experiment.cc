#include "runner/experiment.hh"

#include <algorithm>
#include <cstdio>

#include "common/exact_ticks.hh"
#include "common/rng.hh"
#include "exec/thread_pool.hh"
#include "runner/run_context.hh"

namespace dora
{

FreqTable
deviceFreqTable(const ExperimentConfig &config)
{
    if (config.freqScale == 1.0 && config.voltageScale == 1.0)
        return FreqTable::msm8974();
    const FreqTable stock = FreqTable::msm8974();
    std::vector<OperatingPoint> opps;
    opps.reserve(stock.size());
    for (size_t i = 0; i < stock.size(); ++i) {
        OperatingPoint opp = stock.opp(i);
        // Positive scales preserve the ascending-frequency invariant
        // the FreqTable constructor enforces.
        opp.coreMhz *= config.freqScale;
        opp.busMhz *= config.freqScale;
        opp.voltage *= config.voltageScale;
        opps.push_back(opp);
    }
    return FreqTable(std::move(opps));
}

ExperimentRunner::ExperimentRunner(const ExperimentConfig &config)
    : config_(config), freqTable_(deviceFreqTable(config))
{
}

RunMeasurement
ExperimentRunner::run(const WorkloadSpec &workload, Governor &governor,
                      std::optional<size_t> initial_freq)
{
    const RunCell cell = makeRunCell(config_, workload.page,
                                     workload.kernel, workload.label(),
                                     nullptr);
    return runCustom(cell.params.page, cell.params.corun,
                     cell.params.label, governor, initial_freq);
}

RunMeasurement
ExperimentRunner::runCustom(const WebPage *page_ptr, Task *corun_task,
                            const std::string &label, Governor &governor,
                            std::optional<size_t> initial_freq)
{
    RunContext::Params params;
    params.page = page_ptr;
    params.corun = corun_task;
    params.label = label;
    params.governor = &governor;
    params.initialFreq = initial_freq;
    params.fault = faultInjector_;
    RunContext ctx(config_, params);
    while (!ctx.done())
        ctx.advance();
    return ctx.finish();
}

RunMeasurement
ExperimentRunner::runAtFrequency(const WorkloadSpec &workload,
                                 size_t freq_index)
{
    FixedGovernor governor(freq_index);
    return run(workload, governor, freq_index);
}

double
ExperimentRunner::socCollapsedFloorW() const
{
    return config_.power.baselineW +
        config_.power.dynamic.idleActivity * 0.0 +  // cores gated
        config_.soc.mem.dram.backgroundPowerW;
}

std::vector<IdleSample>
ExperimentRunner::idleCharacterization(
    const std::vector<double> &ambients_c, double settle_sec,
    double sample_sec, unsigned jobs)
{
    // One cell per (ambient, OPP): a fully independent device
    // simulation, so the grid parallelizes with no shared state. Cells
    // are assembled in grid order, which keeps the sample sequence
    // identical at every job count.
    const size_t freqs = freqTable_.size();
    auto run_cell = [&](size_t cell) {
        const double ambient = ambients_c[cell / freqs];
        const size_t f = cell % freqs;

        Soc soc(config_.soc, deviceFreqTable(config_));
        DevicePowerConfig power_config = config_.power;
        power_config.thermal.ambientC = ambient;
        power_config.thermal.initialC = ambient;
        power_config.thermal.thermalResistance *=
            config_.thermalResistanceScale;
        DevicePower power(power_config, LeakageModel::msm8974Truth());
        SimConfig sim_config;
        sim_config.dtSec = config_.dtSec;
        sim_config.maxSeconds = settle_sec + sample_sec + 1.0;
        Simulator sim(soc, power, sim_config);
        soc.setFrequencyIndex(f);

        while (sim.nowSec() < settle_sec)
            sim.step();
        // Sample (v, T, P) tuples along the tail of the transient:
        // each pair is a valid instantaneous observation for the
        // leakage fit, and the spread in T conditions the problem.
        std::vector<IdleSample> cell_samples;
        RunningStat power_stat;
        double last_emit = sim.nowSec();
        IdleSample s;
        s.voltage = soc.operatingPoint().voltage;
        while (sim.nowSec() < settle_sec + sample_sec) {
            const TickTrace &trace = sim.step();
            power_stat.push(trace.power.total());
            if (sim.nowSec() - last_emit >= 0.1) {
                s.tempC = power.temperatureC();
                s.powerW = power_stat.mean();
                cell_samples.push_back(s);
                power_stat.reset();
                last_emit = sim.nowSec();
            }
        }
        return cell_samples;
    };

    std::vector<IdleSample> samples;
    const auto per_cell = parallelMap<std::vector<IdleSample>>(
        ambients_c.size() * freqs, run_cell, jobs);
    for (const auto &cell_samples : per_cell)
        samples.insert(samples.end(), cell_samples.begin(),
                       cell_samples.end());
    return samples;
}

namespace
{

/** Append @p value to @p out as a bit-exact hex float. */
void
appendHexDouble(std::string &out, double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a ", value);
    out += buf;
}

} // namespace

std::string
runMeasurementText(const RunMeasurement &m)
{
    std::string out;
    out.reserve(512);
    out += m.workload;
    out += '|';
    out += m.governor;
    out += '|';
    out += m.pageFinished ? '1' : '0';
    out += m.meetsDeadline ? '1' : '0';
    out += m.censored ? '1' : '0';
    out += ' ';
    appendHexDouble(out, m.loadTimeSec);
    appendHexDouble(out, m.energyJ);
    appendHexDouble(out, m.meanPowerW);
    appendHexDouble(out, m.ppw);
    appendHexDouble(out, m.meanL2Mpki);
    appendHexDouble(out, m.meanCorunUtil);
    appendHexDouble(out, m.meanTempC);
    appendHexDouble(out, m.peakTempC);
    appendHexDouble(out, m.meanFreqMhz);
    out += "sw=" + std::to_string(m.freqSwitches) + " res=";
    for (double r : m.freqResidencySec)
        appendHexDouble(out, r);
    out += "dec=";
    for (const auto &d : m.decisions) {
        appendHexDouble(out, d.tSec);
        out += std::to_string(d.freqIndex) + "/" +
            std::to_string(d.requestedFreqIndex) + " ";
        appendHexDouble(out, d.l2Mpki);
        appendHexDouble(out, d.corunUtil);
        appendHexDouble(out, d.temperatureC);
    }
    out += "bk=";
    appendHexDouble(out, m.meanBreakdown.baseline);
    appendHexDouble(out, m.meanBreakdown.coreDynamic);
    appendHexDouble(out, m.meanBreakdown.l2Traffic);
    appendHexDouble(out, m.meanBreakdown.dram);
    appendHexDouble(out, m.meanBreakdown.leakage);
    appendHexDouble(out, m.meanBreakdown.dvfsSwitch);
    return out;
}

uint64_t
runMeasurementDigest(const RunMeasurement &m)
{
    return hashLabel(runMeasurementText(m));
}

uint64_t
experimentConfigHash(const ExperimentConfig &config)
{
    // "rev3": adaptive memory-sampling reuse. Bump the token whenever
    // the run recipe changes results. The sampling tunables shape
    // adaptive-mode results, so they are part of the protocol;
    // exact-ticks mode (or sampling.enabled = false) keys separately.
    std::string text = "measurement-rev3 ";
    appendHexDouble(text, config.deadlineSec);
    appendHexDouble(text, config.warmupSec);
    appendHexDouble(text, config.dtSec);
    appendHexDouble(text, config.maxLoadSec);
    appendHexDouble(text, config.measureSec);
    appendHexDouble(text, config.ambientC);
    appendHexDouble(text, config.warmDieDeltaC);
    const bool adaptive =
        config.soc.sampling.enabled && !exactTicksMode();
    if (adaptive) {
        text += "adaptive r" +
            std::to_string(config.soc.sampling.refreshTicks) + " c" +
            std::to_string(config.soc.sampling.convergeTicks) + " e" +
            std::to_string(config.soc.sampling.maxEntries) + " w";
        appendHexDouble(text, config.soc.sampling.warmCoverage);
    } else {
        text += "exact";
    }
    // Heterogeneity scales key only when non-default so that every
    // pre-fleet campaign hash and cached bundle stays valid.
    if (config.freqScale != 1.0 || config.voltageScale != 1.0 ||
        config.thermalResistanceScale != 1.0) {
        text += " hetero";
        appendHexDouble(text, config.freqScale);
        appendHexDouble(text, config.voltageScale);
        appendHexDouble(text, config.thermalResistanceScale);
    }
    // The power model keys only when it departs from the stock
    // Nexus 5 parameters, again so pre-existing hashes stay valid.
    // thermal.ambientC and thermal.initialC are overwritten per run
    // from ambientC / warmDieDeltaC (folded above) and are therefore
    // not part of the protocol.
    const DevicePowerConfig stock_power;
    const bool stock_dynamic =
        config.power.dynamic.coreCeff ==
            stock_power.dynamic.coreCeff &&
        config.power.dynamic.idleActivity ==
            stock_power.dynamic.idleActivity &&
        config.power.dynamic.l2AccessEnergyJ ==
            stock_power.dynamic.l2AccessEnergyJ &&
        config.power.dynamic.uncoreCeff ==
            stock_power.dynamic.uncoreCeff;
    const bool stock_thermal =
        config.power.thermal.thermalResistance ==
            stock_power.thermal.thermalResistance &&
        config.power.thermal.heatCapacity ==
            stock_power.thermal.heatCapacity &&
        config.power.thermal.maxJunctionC ==
            stock_power.thermal.maxJunctionC;
    if (!stock_dynamic || !stock_thermal ||
        config.power.baselineW != stock_power.baselineW) {
        text += " power";
        appendHexDouble(text, config.power.dynamic.coreCeff);
        appendHexDouble(text, config.power.dynamic.idleActivity);
        appendHexDouble(text, config.power.dynamic.l2AccessEnergyJ);
        appendHexDouble(text, config.power.dynamic.uncoreCeff);
        appendHexDouble(text, config.power.thermal.thermalResistance);
        appendHexDouble(text, config.power.thermal.heatCapacity);
        appendHexDouble(text, config.power.thermal.maxJunctionC);
        appendHexDouble(text, config.power.baselineW);
    }
    return hashLabel(text);
}

} // namespace dora
