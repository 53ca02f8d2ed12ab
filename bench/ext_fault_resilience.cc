/**
 * @file
 * Extension experiment (robustness): governor resilience under an
 * injected fault model.
 *
 * The paper evaluates DORA on a clean signal path; a deployed daemon
 * does not get one. This bench replays a fixed workload set under
 * deterministic fault schedules — sensor dropout, stuck sensors,
 * noisy sensors, rejected DVFS writes, and ambient thermal
 * emergencies — for both the stock interactive governor and hardened
 * DORA, each wrapped in the thermal-throttle shim. For every schedule
 * it reports energy efficiency relative to the fault-free baseline,
 * deadline misses, throttle-ceiling violations, and the injected
 * fault tally.
 *
 * Self-checked acceptance gates (exit status 1 on failure):
 *   - every run completes (no crash, no abort) under every schedule;
 *   - hardened DORA never runs above the throttle ceiling while the
 *     die is at or past the critical temperature (gated schedules);
 *   - hardened DORA's deadline-miss rate across the gated fault
 *     schedules stays within kDoraMissBound.
 * The "combined" schedule (everything at once) is report-only.
 *
 * A final section demonstrates model-fault tolerance: truncated,
 * NaN-poisoned, and garbage bundle files are loaded and must yield a
 * not-ready bundle (and a still-functional degraded governor), never
 * a process abort.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "browser/page_corpus.hh"
#include "dora/predictive_governor.hh"
#include "fault/fault_injector.hh"
#include "fault/thermal_throttle.hh"
#include "runner/experiment.hh"

using namespace dora;

namespace
{

/** Miss-rate acceptance bound for hardened DORA under faults. */
constexpr double kDoraMissBound = 0.5;

struct ScheduleCase
{
    const char *name;
    FaultSchedule schedule;
    bool gated;  //!< participates in the acceptance checks
};

/** Per (schedule, governor) accumulation across the workload set. */
struct Tally
{
    double ppwSum = 0.0;
    size_t runs = 0;
    size_t misses = 0;
    uint64_t ceilingViolations = 0;
    uint64_t freqSwitches = 0;
    FaultCounters faults;
};

void
accumulate(FaultCounters &into, const FaultCounters &c)
{
    into.sensorDrops += c.sensorDrops;
    into.sensorStuckIntervals += c.sensorStuckIntervals;
    into.sensorNoisy += c.sensorNoisy;
    into.staleFallbacks += c.staleFallbacks;
    into.actuatorRejects += c.actuatorRejects;
    into.actuatorRetries += c.actuatorRetries;
    into.actuatorGiveUps += c.actuatorGiveUps;
    into.thermalSpikes += c.thermalSpikes;
}

/**
 * Decisions where the granted OPP sat above the throttle ceiling while
 * the true die temperature was at or past critical. The shim acts on
 * the same decision that observes the crossing, so a correctly wired
 * stack produces zero.
 */
uint64_t
ceilingViolations(const RunMeasurement &m, const FreqTable &table,
                  const ThermalThrottleConfig &cfg)
{
    uint64_t violations = 0;
    for (const auto &d : m.decisions)
        if (d.temperatureC >= cfg.criticalC &&
            table.opp(d.freqIndex).coreMhz > cfg.ceilingMhz + 1e-9)
            ++violations;
    return violations;
}

/** tryLoad a deliberately bad bundle file; true when safely rejected. */
bool
rejectedSafely(const std::string &label, const std::string &contents)
{
    const std::string path = "ext_fault_bad_bundle.tmp";
    {
        std::ofstream out(path);
        out << contents;
    }
    const ModelBundle loaded = ModelBundle::tryLoad(path);
    std::remove(path.c_str());
    std::cout << "  " << label << ": "
              << (loaded.ready() ? "ACCEPTED (bad!)" : "rejected, not "
                                                       "ready")
              << "\n";
    return !loaded.ready();
}

} // namespace

int
main(int argc, char **argv)
{
    cliRejectUnknownArgs(argc, argv, "ext_fault_resilience", {"--trace"},
                         {"--exact-ticks"});
    ObsGuard obs(argc, argv);
    auto bundle = benchBundle();
    ExperimentRunner runner;
    const FreqTable &table = runner.freqTable();
    const ThermalThrottleConfig throttle_cfg;

    const std::vector<WorkloadSpec> workloads = {
        WorkloadSets::combo(PageCorpus::byName("amazon"),
                            MemIntensity::Medium),
        WorkloadSets::combo(PageCorpus::byName("espn"),
                            MemIntensity::Medium),
        WorkloadSets::combo(PageCorpus::byName("msn"),
                            MemIntensity::Low),
        WorkloadSets::combo(PageCorpus::byName("imdb"),
                            MemIntensity::High),
    };

    const uint64_t seed = 0xD0ADull;
    const std::vector<ScheduleCase> cases = {
        {"fault-free", FaultSchedule::none(), true},
        {"sensor-dropout", FaultSchedule::sensorDropout(seed), true},
        {"stuck-sensor", FaultSchedule::stuckSensor(seed), true},
        {"noisy-sensor", FaultSchedule::noisySensor(seed), true},
        {"actuator-reject", FaultSchedule::actuatorReject(seed), true},
        {"thermal-emergency", FaultSchedule::thermalEmergency(seed),
         true},
        {"combined", FaultSchedule::combined(seed), false},
    };
    const std::vector<std::string> governors = {"interactive", "DORA"};

    // results[case][governor]
    std::vector<std::vector<Tally>> results(
        cases.size(), std::vector<Tally>(governors.size()));

    for (size_t ci = 0; ci < cases.size(); ++ci) {
        FaultInjector injector(cases[ci].schedule);
        runner.setFaultInjector(&injector);
        for (size_t gi = 0; gi < governors.size(); ++gi) {
            Tally &tally = results[ci][gi];
            for (const auto &workload : workloads) {
                InteractiveGovernor interactive;
                PredictiveGovernor dora = makeDora(bundle);
                Governor &inner =
                    gi == 0 ? static_cast<Governor &>(interactive)
                            : static_cast<Governor &>(dora);
                ThermalThrottleShim shim(inner, throttle_cfg);
                const RunMeasurement m = runner.run(workload, shim);
                tally.ppwSum += m.ppw;
                ++tally.runs;
                if (!m.meetsDeadline)
                    ++tally.misses;
                tally.ceilingViolations +=
                    ceilingViolations(m, table, throttle_cfg);
                tally.freqSwitches += m.freqSwitches;
                // The injector resets (and zeroes its counters) at the
                // start of every run; harvest between runs.
                accumulate(tally.faults, injector.counters());
            }
        }
    }
    runner.setFaultInjector(nullptr);

    TextTable t({"schedule", "governor", "mean PPW", "vs clean %",
                 "misses", "ceil viol", "switches"});
    for (size_t ci = 0; ci < cases.size(); ++ci) {
        for (size_t gi = 0; gi < governors.size(); ++gi) {
            const Tally &tally = results[ci][gi];
            const Tally &clean = results[0][gi];
            const double mean_ppw =
                tally.ppwSum / static_cast<double>(tally.runs);
            const double clean_ppw =
                clean.ppwSum / static_cast<double>(clean.runs);
            t.beginRow();
            t.add(std::string(cases[ci].name) +
                  (cases[ci].gated ? "" : " (report-only)"));
            t.add(governors[gi]);
            t.add(mean_ppw, 4);
            t.add(100.0 * (mean_ppw / clean_ppw - 1.0), 1);
            t.add(static_cast<int64_t>(tally.misses));
            t.add(static_cast<int64_t>(tally.ceilingViolations));
            t.add(static_cast<int64_t>(tally.freqSwitches));
        }
    }
    emitTable("ext_fault_resilience",
              "Governor resilience under injected faults (4 workloads "
              "per cell, deadline 3.0 s)",
              t);

    TextTable f({"schedule", "governor", "drops", "stuck", "noisy",
                 "stale", "act.rej", "retries", "giveups", "spikes"});
    for (size_t ci = 1; ci < cases.size(); ++ci) {
        for (size_t gi = 0; gi < governors.size(); ++gi) {
            const FaultCounters &c = results[ci][gi].faults;
            f.beginRow();
            f.add(std::string(cases[ci].name));
            f.add(governors[gi]);
            f.add(static_cast<int64_t>(c.sensorDrops));
            f.add(static_cast<int64_t>(c.sensorStuckIntervals));
            f.add(static_cast<int64_t>(c.sensorNoisy));
            f.add(static_cast<int64_t>(c.staleFallbacks));
            f.add(static_cast<int64_t>(c.actuatorRejects));
            f.add(static_cast<int64_t>(c.actuatorRetries));
            f.add(static_cast<int64_t>(c.actuatorGiveUps));
            f.add(static_cast<int64_t>(c.thermalSpikes));
        }
    }
    emitTable("ext_fault_resilience_counters", "injected fault tally",
              f);

    printBanner(std::cout, "Model-fault tolerance (tryLoad must reject, "
                           "never abort)");
    const std::string good = bundle->serialize();
    bool model_ok = true;
    model_ok &= rejectedSafely("truncated body",
                               good.substr(0, good.size() / 2));
    {
        // Poison one coefficient after the valid header.
        std::string nan_blob = good;
        const size_t pos = nan_blob.find("coeffs ");
        if (pos != std::string::npos) {
            const size_t val = pos + 7;
            const size_t end = nan_blob.find(' ', val);
            nan_blob.replace(val, end - val, "nan");
        }
        model_ok &= rejectedSafely("NaN coefficient", nan_blob);
    }
    model_ok &= rejectedSafely("garbage", "not a bundle at all\n");
    {
        // A degraded governor on a never-trained bundle must still
        // produce in-range decisions (interactive fallback).
        auto empty = std::make_shared<ModelBundle>();
        PredictiveGovernor degraded = makeDora(empty);
        const RunMeasurement m = runner.run(workloads[2], degraded);
        std::cout << "  degraded DORA (untrained bundle): load "
                  << formatFixed(m.loadTimeSec, 3) << " s, deadline "
                  << (m.meetsDeadline ? "met" : "missed")
                  << " — completed without abort\n";
    }

    // Acceptance gates.
    size_t dora_fault_runs = 0, dora_fault_misses = 0;
    uint64_t dora_violations = 0;
    for (size_t ci = 1; ci < cases.size(); ++ci) {
        if (!cases[ci].gated)
            continue;
        dora_fault_runs += results[ci][1].runs;
        dora_fault_misses += results[ci][1].misses;
        dora_violations += results[ci][1].ceilingViolations;
    }
    const double miss_rate = static_cast<double>(dora_fault_misses) /
        static_cast<double>(dora_fault_runs);
    const bool pass = model_ok && dora_violations == 0 &&
        miss_rate <= kDoraMissBound;
    std::cout << "\nhardened DORA across gated fault schedules: "
              << dora_fault_misses << "/" << dora_fault_runs
              << " deadline misses (rate "
              << formatFixed(100.0 * miss_rate, 1) << "%, bound "
              << formatFixed(100.0 * kDoraMissBound, 0) << "%), "
              << dora_violations << " throttle-ceiling violations\n";
    std::cout << (pass ? "PASS" : "FAIL")
              << ": crash-free completion, ceiling intact, miss rate "
                 "within bound, corrupt bundles rejected\n";
    return pass ? 0 : 1;
}
