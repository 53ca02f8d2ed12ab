#include "runner/run_context.hh"

#include <algorithm>

#include "common/exact_ticks.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "fault/fault_injector.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "workloads/corun_task.hh"

namespace dora
{

GovernorDriver::GovernorDriver(Simulator &sim, Governor &governor,
                               double deadline_sec, FaultInjector *fault)
    : sim_(sim), governor_(governor), deadlineSec_(deadline_sec),
      prev_(sim.soc().perfSnapshot()),
      fault_(fault && fault->enabled() ? fault : nullptr),
      baseAmbientC_(sim.power().thermal().ambientC())
{
}

void
GovernorDriver::maybeDecide()
{
    const double now = sim_.nowSec();
    maybeRetryActuator(now);
    if (decided_ && now - lastDecisionSec_ <
            governor_.decisionIntervalSec() - 1e-12)
        return;

    if (fault_)
        applyThermalEmergency(now);

    const PerfSnapshot snap = sim_.soc().perfSnapshot();
    const double dt = snap.seconds - prev_.seconds;

    GovernorView view;
    view.nowSec = now;
    view.freqIndex = sim_.soc().frequencyIndex();
    view.freqTable = &sim_.soc().freqTable();
    view.temperatureC = sim_.power().temperatureC();
    view.page = page_;
    view.deadlineSec = deadlineSec_;
    view.elapsedLoadSec = page_ ? now - loadStartSec_ : 0.0;

    if (dt > 0.0) {
        double max_util = 0.0;
        for (size_t c = 0; c < snap.coreBusySeconds.size(); ++c) {
            const double util =
                (snap.coreBusySeconds[c] - prev_.coreBusySeconds[c]) /
                dt;
            max_util = std::max(max_util, util);
            if (c == kMainCore || c == kHelperCore)
                view.browserUtilization =
                    std::max(view.browserUtilization, util);
            if (c == kCorunCore)
                view.corunUtilization = util;
        }
        view.totalUtilization = max_util;
        const double d_instr =
            snap.totalInstructions - prev_.totalInstructions;
        const double d_miss = snap.totalL2Misses - prev_.totalL2Misses;
        view.l2Mpki = d_instr > 0.0 ? d_miss / (d_instr / 1000.0)
                                    : 0.0;
    }

    bool fault_conditioned = false;
    if (fault_) {
        const FaultCounters before = fault_->counters();
        fault_->conditionView(view);
        const FaultCounters &after = fault_->counters();
        fault_conditioned =
            after.sensorDrops != before.sensorDrops ||
            after.sensorStuckIntervals !=
                before.sensorStuckIntervals ||
            after.sensorNoisy != before.sensorNoisy ||
            after.staleFallbacks != before.staleFallbacks;
        // Conservative: a fault-conditioned decision marks a phase
        // boundary for the adaptive sampler too.
        if (fault_conditioned)
            sim_.soc().invalidateSampling();
    }

    size_t target = governor_.decideFrequencyIndex(view);
    for (Governor *&rider : riders_)
        if (rider && rider->decideFrequencyIndex(view) != target)
            rider = nullptr;
    if (target >= view.freqTable->size()) {
        if (!warnedOutOfRange_) {
            warn("GovernorDriver: governor '%s' returned OPP index "
                 "%zu outside the %zu-entry table; clamping",
                 governor_.name().c_str(), target,
                 view.freqTable->size());
            warnedOutOfRange_ = true;
        }
        target = view.freqTable->maxIndex();
    }
    applyFrequency(now, target);
    prev_ = snap;
    lastDecisionSec_ = now;
    decided_ = true;

    DecisionRecord record;
    record.tSec = now;
    // Record the *granted* OPP: with actuator faults the write may
    // have been rejected (identical to the request fault-free).
    record.freqIndex = sim_.soc().frequencyIndex();
    record.requestedFreqIndex = target;
    record.l2Mpki = view.l2Mpki;
    record.corunUtil = view.corunUtilization;
    record.temperatureC = sim_.power().temperatureC();
    decisions_.push_back(record);

    static MetricCounter &decide_count =
        MetricsRegistry::global().counter("governor.decisions");
    decide_count.add();
    if (trace_) {
        trace_->instant(now, "governor", "decide",
                        {{"requested", target},
                         {"granted", record.freqIndex},
                         {"l2_mpki", view.l2Mpki},
                         {"corun_util", view.corunUtilization},
                         {"temp_c", record.temperatureC},
                         {"fault_conditioned", fault_conditioned}});
    }
}

double
GovernorDriver::nextEventSec() const
{
    double next = decided_
        ? lastDecisionSec_ + governor_.decisionIntervalSec()
        : sim_.nowSec();
    if (havePendingWrite_)
        next = std::min(next, nextRetrySec_);
    return next;
}

void
GovernorDriver::applyFrequency(double now, size_t target)
{
    havePendingWrite_ = false;
    if (fault_ == nullptr) {
        sim_.soc().setFrequencyIndex(target);
        return;
    }
    if (fault_->actuatorAccepts(now, target,
                                sim_.soc().frequencyIndex())) {
        sim_.soc().setFrequencyIndex(target);
        return;
    }
    havePendingWrite_ = true;
    pendingTarget_ = target;
    retryAttempts_ = 0;
    retryBackoffSec_ = kActuatorRetryBackoffSec;
    nextRetrySec_ = now + retryBackoffSec_;
}

void
GovernorDriver::maybeRetryActuator(double now)
{
    if (!havePendingWrite_ || fault_ == nullptr ||
        now < nextRetrySec_)
        return;
    fault_->noteActuatorRetry();
    static MetricCounter &retry_count =
        MetricsRegistry::global().counter("governor.actuator_retries");
    retry_count.add();
    if (trace_)
        trace_->instant(now, "governor", "actuator_retry",
                        {{"target", pendingTarget_},
                         {"attempt", retryAttempts_ + 1}});
    if (fault_->actuatorAccepts(now, pendingTarget_,
                                sim_.soc().frequencyIndex())) {
        sim_.soc().setFrequencyIndex(pendingTarget_);
        havePendingWrite_ = false;
        return;
    }
    if (++retryAttempts_ >= kMaxActuatorRetries) {
        // Give up until the next decision; the governor will see
        // the unchanged OPP and re-decide from there.
        fault_->noteActuatorGiveUp();
        static MetricCounter &giveup_count =
            MetricsRegistry::global().counter(
                "governor.actuator_give_ups");
        giveup_count.add();
        if (trace_)
            trace_->instant(now, "governor", "actuator_give_up",
                            {{"target", pendingTarget_}});
        havePendingWrite_ = false;
        return;
    }
    retryBackoffSec_ *= 2.0;
    nextRetrySec_ = now + retryBackoffSec_;
}

void
GovernorDriver::applyThermalEmergency(double now)
{
    const double delta = fault_->ambientDeltaC(now);
    if (delta != appliedAmbientDeltaC_) {
        sim_.power().thermal().setAmbientC(baseAmbientC_ + delta);
        appliedAmbientDeltaC_ = delta;
        // A thermal emergency may shift behaviour without moving
        // the phase signature: drop the cached miss rates so the
        // next tick re-samples (no-op in exact-ticks mode).
        sim_.soc().invalidateSampling();
    }
}

void
GovernorDriver::snapshot(SnapshotWriter &w) const
{
    w.beginSection("gdrv", 1);
    w.putDouble(prev_.seconds);
    w.putDouble(prev_.totalInstructions);
    w.putDouble(prev_.totalL2Misses);
    w.putDoubles(prev_.coreInstructions);
    w.putDoubles(prev_.coreBusySeconds);
    w.putDouble(appliedAmbientDeltaC_);
    w.putBool(havePendingWrite_);
    w.putU64(static_cast<uint64_t>(pendingTarget_));
    w.putU32(static_cast<uint32_t>(retryAttempts_));
    w.putDouble(retryBackoffSec_);
    w.putDouble(nextRetrySec_);
    w.putBool(warnedOutOfRange_);
    w.putDouble(loadStartSec_);
    w.putDouble(lastDecisionSec_);
    w.putBool(decided_);
    w.putSize(decisions_.size());
    for (const auto &d : decisions_) {
        w.putDouble(d.tSec);
        w.putU64(static_cast<uint64_t>(d.freqIndex));
        w.putU64(static_cast<uint64_t>(d.requestedFreqIndex));
        w.putDouble(d.l2Mpki);
        w.putDouble(d.corunUtil);
        w.putDouble(d.temperatureC);
    }
}

bool
GovernorDriver::tryRestore(SnapshotReader &r)
{
    if (!r.beginSection("gdrv", 1))
        return false;
    PerfSnapshot prev;
    double ambient_delta, backoff, next_retry, load_start, last_decision;
    bool pending, warned, decided;
    uint64_t pending_target;
    uint32_t attempts;
    size_t n_decisions;
    if (!r.getDouble(&prev.seconds) ||
        !r.getDouble(&prev.totalInstructions) ||
        !r.getDouble(&prev.totalL2Misses) ||
        !r.getDoubles(&prev.coreInstructions) ||
        !r.getDoubles(&prev.coreBusySeconds) ||
        !r.getDouble(&ambient_delta) || !r.getBool(&pending) ||
        !r.getU64(&pending_target) || !r.getU32(&attempts) ||
        !r.getDouble(&backoff) || !r.getDouble(&next_retry) ||
        !r.getBool(&warned) || !r.getDouble(&load_start) ||
        !r.getDouble(&last_decision) || !r.getBool(&decided) ||
        !r.getSize(&n_decisions))
        return false;
    std::vector<DecisionRecord> decisions(n_decisions);
    for (auto &d : decisions) {
        uint64_t freq, requested;
        if (!r.getDouble(&d.tSec) || !r.getU64(&freq) ||
            !r.getU64(&requested) || !r.getDouble(&d.l2Mpki) ||
            !r.getDouble(&d.corunUtil) || !r.getDouble(&d.temperatureC))
            return false;
        d.freqIndex = static_cast<size_t>(freq);
        d.requestedFreqIndex = static_cast<size_t>(requested);
    }
    prev_ = std::move(prev);
    appliedAmbientDeltaC_ = ambient_delta;
    havePendingWrite_ = pending;
    pendingTarget_ = static_cast<size_t>(pending_target);
    retryAttempts_ = static_cast<int>(attempts);
    retryBackoffSec_ = backoff;
    nextRetrySec_ = next_retry;
    warnedOutOfRange_ = warned;
    loadStartSec_ = load_start;
    lastDecisionSec_ = last_decision;
    decided_ = decided;
    decisions_ = std::move(decisions);
    return true;
}

RunContext::RunContext(const ExperimentConfig &config,
                       const Params &params)
    : config_(config), params_(params)
{
    if (params_.governor == nullptr)
        fatal("RunContext: null governor");

    soc_ = std::make_unique<Soc>(config_.soc, deviceFreqTable(config_));
    DevicePowerConfig power_config = config_.power;
    power_config.thermal.ambientC = config_.ambientC;
    power_config.thermal.thermalResistance *=
        config_.thermalResistanceScale;
    // Page loads are short next to the thermal time constant, so the
    // die temperature during a load is dominated by the *starting*
    // temperature. Measurements begin on a warm device (the phone has
    // been in use), i.e. near the steady state of a moderate sustained
    // load — matching the paper's 58-65 degC observations at room
    // ambient (Section V-F).
    power_config.thermal.initialC =
        config_.ambientC + config_.warmDieDeltaC;
    power_ = std::make_unique<DevicePower>(power_config,
                                           LeakageModel::msm8974Truth());

    SimConfig sim_config;
    sim_config.dtSec = config_.dtSec;
    sim_config.maxSeconds =
        config_.warmupSec + config_.maxLoadSec + config_.measureSec + 5.0;
    sim_ = std::make_unique<Simulator>(*soc_, *power_, sim_config);

    // dora:stream-tag-shared(page: namespace shared with the seed)
    salt_ = hashLabel("page:" + params_.label) % 4096;
    if (params_.corun) {
        params_.corun->reset();
        sim_->bindTask(kCorunCore, params_.corun);
    }

    params_.governor->reset();
    for (Governor *rider : params_.riders)
        rider->reset();
    if (params_.initialFreq)
        soc_->setFrequencyIndex(*params_.initialFreq);

    if (params_.fault)
        params_.fault->reset();
    driver_ = std::make_unique<GovernorDriver>(
        *sim_, *params_.governor, config_.deadlineSec, params_.fault);
    driver_->setRiders(params_.riders);

    // One relaxed atomic load per *run* decides whether this run is
    // traced; every per-event site below guards on a plain pointer.
    TraceSession *session = TraceSession::active();
    if (session && !params_.riders.empty())
        panic("RunContext: riders cannot follow a traced run");
    if (session) {
        std::string key = params_.label + "|" + params_.governor->name();
        if (params_.initialFreq)
            key += "|f" + std::to_string(*params_.initialFreq);
        trace_ = std::make_unique<RunTrace>(std::move(key));
        trace_->setMeta("workload", params_.label);
        trace_->setMeta("governor", params_.governor->name());
        trace_->setMeta("config_hash",
                        hexU64(experimentConfigHash(config_)));
        trace_->setMeta("page_salt", salt_);
        if (params_.initialFreq)
            trace_->setMeta("initial_freq",
                            static_cast<uint64_t>(*params_.initialFreq));
        trace_->setMeta("faults",
                        params_.fault && params_.fault->enabled());
        driver_->setTrace(trace_.get());
        if (params_.fault)
            params_.fault->setTrace(trace_.get());
    }

    exact_ = exactTicksMode();
}

RunContext::~RunContext()
{
    // A run abandoned mid-flight must not leave the shared injector
    // pointing at a dead trace sink.
    if (trace_ && params_.fault)
        params_.fault->setTrace(nullptr);
}

void
RunContext::applyTransitions()
{
    for (;;) {
        if (phase_ == Phase::Warmup &&
            !(sim_->nowSec() < config_.warmupSec)) {
            enterWindow();
            continue;
        }
        if (phase_ == Phase::Window) {
            if (!(sim_->nowSec() - t0_ < windowWall_) ||
                (page_ && page_->finished())) {
                phase_ = Phase::Done;
                continue;
            }
        }
        return;
    }
}

void
RunContext::enterWindow()
{
    if (trace_)
        trace_->complete(0.0, sim_->nowSec(), "run", "warmup");

    // Measurement window begins: bind the page load (if any).
    if (params_.page) {
        page_ = std::make_unique<PageLoad>(*params_.page, cost_, salt_);
        sim_->bindTask(kMainCore, &page_->mainTask());
        sim_->bindTask(kHelperCore, &page_->helperTask());
        driver_->setPage(&params_.page->features, sim_->nowSec());
        if (trace_)
            page_->setTrace(trace_.get(), sim_->nowSec());
    }

    t0_ = sim_->nowSec();
    e0_ = power_->totalEnergyJ();
    p0_ = soc_->perfSnapshot();
    switches0_ = soc_->switchCount();
    corunBusy0_ = soc_->core(kCorunCore).totalBusySeconds();

    tempStat_.reset();
    freqTimeMhz_ = 0.0;
    residency_.assign(soc_->freqTable().size(), 0.0);
    breakdownSum_ = PowerBreakdown();
    windowTicks_ = 0;

    windowWall_ = params_.page ? config_.maxLoadSec : config_.measureSec;
    windowEnd_ = t0_ + windowWall_;
    phase_ = Phase::Window;
}

void
RunContext::accumulate(const TickTrace &trace)
{
    tempStat_.push(power_->temperatureC());
    breakdownSum_.baseline += trace.power.baseline;
    breakdownSum_.coreDynamic += trace.power.coreDynamic;
    breakdownSum_.l2Traffic += trace.power.l2Traffic;
    breakdownSum_.dram += trace.power.dram;
    breakdownSum_.leakage += trace.power.leakage;
    breakdownSum_.dvfsSwitch += trace.power.dvfsSwitch;
    ++windowTicks_;
}

bool
RunContext::done()
{
    applyTransitions();
    return phase_ == Phase::Done;
}

void
RunContext::advance()
{
    applyTransitions();
    if (phase_ == Phase::Done)
        return;
    driver_->maybeDecide();

    if (phase_ == Phase::Warmup) {
        // Warmup: co-runner (if any) alone, governor already in
        // control. Macro-tick fast-forward: between a decision and the
        // driver's next event the ticks are quiescent, so they run as
        // one batch — the per-tick arithmetic is identical
        // (Simulator::fastForward), only the bookkeeping between ticks
        // is elided. --exact-ticks forces the legacy 1-tick loop.
        if (exact_) {
            sim_->step();
            return;
        }
        const double horizon =
            std::min(driver_->nextEventSec(), config_.warmupSec);
        sim_->fastForward(sim_->ticksUntil(horizon));
        return;
    }

    if (exact_) {
        const double mhz = soc_->operatingPoint().coreMhz;
        residency_[soc_->frequencyIndex()] += config_.dtSec;
        const TickTrace &trace = sim_->step();
        freqTimeMhz_ += mhz * config_.dtSec;
        accumulate(trace);
        return;
    }
    // The OPP is constant inside a batch (decisions and retries
    // happen only at batch boundaries), so the residency and
    // MHz-time integrals use values latched here; the page-finish
    // predicate still ends the window on the exact tick.
    const double mhz = soc_->operatingPoint().coreMhz;
    const size_t freq_index = soc_->frequencyIndex();
    const double horizon =
        std::min(driver_->nextEventSec(), windowEnd_);
    sim_->fastForward(
        sim_->ticksUntil(horizon), [&](const TickTrace &trace) {
            residency_[freq_index] += config_.dtSec;
            freqTimeMhz_ += mhz * config_.dtSec;
            accumulate(trace);
            return page_ && page_->finished();
        });
}

RunContext::StepPlan
RunContext::advanceBegin()
{
    if (!exact_)
        panic("RunContext::advanceBegin: exact-ticks mode only");
    applyTransitions();
    if (phase_ == Phase::Done)
        return StepPlan::Finished;
    driver_->maybeDecide();

    stepInWindow_ = phase_ == Phase::Window;
    if (stepInWindow_) {
        stepMhz_ = soc_->operatingPoint().coreMhz;
        residency_[soc_->frequencyIndex()] += config_.dtSec;
    }
    return sim_->stepBegin() ? StepPlan::Walk : StepPlan::NoWalk;
}

void
RunContext::advanceFinish()
{
    const TickTrace &trace = sim_->stepFinish();
    if (stepInWindow_) {
        freqTimeMhz_ += stepMhz_ * config_.dtSec;
        accumulate(trace);
    }
}

RunMeasurement
RunContext::finish()
{
    applyTransitions();

    const double t1 = sim_->nowSec();
    const double window = t1 - t0_;

    RunMeasurement m;
    m.workload = params_.label;
    m.governor = params_.governor->name();
    m.pageFinished = page_ ? page_->finished() : false;
    // An unfinished page is *censored*: the window length below is a
    // lower bound on the load time, so the run must not contribute a
    // PPW score (it would reward failing the page over finishing late).
    m.censored = page_ != nullptr && !m.pageFinished;
    m.loadTimeSec = page_ && page_->finished() ? page_->loadTimeSec()
                                               : window;
    m.meetsDeadline =
        m.pageFinished && m.loadTimeSec <= config_.deadlineSec + 1e-9;
    m.energyJ = power_->totalEnergyJ() - e0_;
    m.meanPowerW = window > 0.0 ? m.energyJ / window : 0.0;
    m.ppw = (!m.censored && m.loadTimeSec > 0.0 && m.meanPowerW > 0.0)
        ? 1.0 / (m.loadTimeSec * m.meanPowerW) : 0.0;

    const PerfSnapshot p1 = soc_->perfSnapshot();
    const double d_instr = p1.totalInstructions - p0_.totalInstructions;
    const double d_miss = p1.totalL2Misses - p0_.totalL2Misses;
    m.meanL2Mpki = d_instr > 0.0 ? d_miss / (d_instr / 1000.0) : 0.0;
    m.meanCorunUtil = window > 0.0
        ? (soc_->core(kCorunCore).totalBusySeconds() - corunBusy0_) /
            window
        : 0.0;
    m.meanTempC = tempStat_.mean();
    m.peakTempC = tempStat_.max();
    m.meanFreqMhz = window > 0.0 ? freqTimeMhz_ / window : 0.0;
    m.freqSwitches = soc_->switchCount() - switches0_;
    m.freqResidencySec = residency_;
    for (const auto &d : driver_->decisions())
        if (d.tSec >= t0_ - 1e-12)
            m.decisions.push_back(d);
    if (windowTicks_ > 0) {
        const double n = static_cast<double>(windowTicks_);
        m.meanBreakdown.baseline = breakdownSum_.baseline / n;
        m.meanBreakdown.coreDynamic = breakdownSum_.coreDynamic / n;
        m.meanBreakdown.l2Traffic = breakdownSum_.l2Traffic / n;
        m.meanBreakdown.dram = breakdownSum_.dram / n;
        m.meanBreakdown.leakage = breakdownSum_.leakage / n;
        m.meanBreakdown.dvfsSwitch = breakdownSum_.dvfsSwitch / n;
    }

    if (reported_)
        return m;
    reported_ = true;

    MetricsRegistry &reg = MetricsRegistry::global();
    reg.counter("runner.runs").add();
    reg.counter("sim.ticks").add(sim_->tickCount());
    // Cache probes count the walk work in either mode; exact-ticks
    // mode walks every tick, so mem.sample.walks stays 0 there.
    const MemSystem &mem = soc_->mem();
    uint64_t l1_probes = 0;
    for (uint32_t c = 0; c < mem.config().numCores; ++c)
        l1_probes += mem.l1(c).totalStats().accesses;
    reg.counter("mem.l1_probes").add(l1_probes);
    reg.counter("mem.l2_probes").add(mem.l2().totalStats().accesses);
    reg.counter("sim.macrotick.batches").add(sim_->macroBatches());
    reg.counter("sim.macrotick.batched_ticks")
        .add(sim_->macroBatchedTicks());
    reg.counter("mem.sample.walks").add(soc_->sampling().sampledTicks());
    reg.counter("mem.sample.reused").add(soc_->sampling().reusedTicks());
    reg.counter("mem.sample.seeded_phases")
        .add(soc_->sampling().seededPhases());
    if (m.censored)
        reg.counter("runner.censored_runs").add();
    if (params_.fault && params_.fault->enabled()) {
        const FaultCounters &fc = params_.fault->counters();
        reg.counter("fault.sensor_drops").add(fc.sensorDrops);
        reg.counter("fault.sensor_stuck_intervals")
            .add(fc.sensorStuckIntervals);
        reg.counter("fault.sensor_noisy").add(fc.sensorNoisy);
        reg.counter("fault.stale_fallbacks").add(fc.staleFallbacks);
        reg.counter("fault.actuator_rejects").add(fc.actuatorRejects);
        reg.counter("fault.thermal_spikes").add(fc.thermalSpikes);
    }

    if (trace_) {
        trace_->complete(t0_, window, "run", "window",
                         {{"ticks", windowTicks_}});
        trace_->instant(t1, "run", "measured",
                        {{"load_time_sec", m.loadTimeSec},
                         {"energy_j", m.energyJ},
                         {"mean_power_w", m.meanPowerW},
                         {"ppw", m.ppw},
                         {"page_finished", m.pageFinished},
                         {"meets_deadline", m.meetsDeadline},
                         {"censored", m.censored},
                         {"mean_freq_mhz", m.meanFreqMhz},
                         {"peak_temp_c", m.peakTempC},
                         {"freq_switches", m.freqSwitches}});
        trace_->setMeta("digest", hexU64(runMeasurementDigest(m)));
        if (params_.fault)
            params_.fault->setTrace(nullptr);
        TraceSession *session = TraceSession::active();
        if (session)
            session->submit(std::move(*trace_));
        trace_.reset();
    }
    return m;
}

void
RunContext::snapshot(SnapshotWriter &w) const
{
    if (trace_)
        panic("RunContext::snapshot: traced runs cannot snapshot "
              "(RunTrace has no snapshot support)");
    if (params_.fault && params_.fault->enabled())
        panic("RunContext::snapshot: fault-injected runs cannot "
              "snapshot (FaultInjector has no snapshot support)");
    if (!params_.riders.empty())
        panic("RunContext::snapshot: runs with riders cannot snapshot "
              "(rider governors are not part of the run state)");

    w.beginSection("rctx", 1);
    w.putU8(static_cast<uint8_t>(phase_));
    w.putBool(reported_);
    sim_->snapshot(w);
    params_.governor->snapshot(w);
    driver_->snapshot(w);
    w.putBool(params_.corun != nullptr);
    if (params_.corun)
        params_.corun->snapshot(w);
    w.putBool(page_ != nullptr);
    if (page_)
        page_->snapshot(w);

    w.putDouble(t0_);
    w.putDouble(e0_);
    w.putDouble(p0_.seconds);
    w.putDouble(p0_.totalInstructions);
    w.putDouble(p0_.totalL2Misses);
    w.putDoubles(p0_.coreInstructions);
    w.putDoubles(p0_.coreBusySeconds);
    w.putU64(switches0_);
    w.putDouble(corunBusy0_);
    tempStat_.snapshot(w);
    w.putDouble(freqTimeMhz_);
    w.putDoubles(residency_);
    w.putDouble(breakdownSum_.baseline);
    w.putDouble(breakdownSum_.coreDynamic);
    w.putDouble(breakdownSum_.l2Traffic);
    w.putDouble(breakdownSum_.dram);
    w.putDouble(breakdownSum_.leakage);
    w.putDouble(breakdownSum_.dvfsSwitch);
    w.putU64(windowTicks_);
    w.putDouble(windowWall_);
    w.putDouble(windowEnd_);
}

bool
RunContext::tryRestore(SnapshotReader &r)
{
    if (trace_ || (params_.fault && params_.fault->enabled()) ||
        !params_.riders.empty())
        return false;
    if (!r.beginSection("rctx", 1))
        return false;
    uint8_t phase;
    bool reported;
    if (!r.getU8(&phase) || phase > 2 || !r.getBool(&reported))
        return false;
    // Same-object restore: the page/corun presence flags below must
    // match this context (a pre-window snapshot cannot restore into a
    // context whose page is already bound, and vice versa).
    if (!sim_->tryRestore(r) || !params_.governor->tryRestore(r) ||
        !driver_->tryRestore(r))
        return false;
    bool has_corun, has_page;
    if (!r.getBool(&has_corun) ||
        has_corun != (params_.corun != nullptr))
        return false;
    if (has_corun && !params_.corun->tryRestore(r))
        return false;
    if (!r.getBool(&has_page) || has_page != (page_ != nullptr))
        return false;
    if (has_page && !page_->tryRestore(r))
        return false;

    PerfSnapshot p0;
    double t0, e0, corun_busy0, freq_time_mhz, window_wall, window_end;
    uint64_t switches0, window_ticks;
    RunningStat temp_stat;
    std::vector<double> residency;
    PowerBreakdown breakdown;
    if (!r.getDouble(&t0) || !r.getDouble(&e0) ||
        !r.getDouble(&p0.seconds) ||
        !r.getDouble(&p0.totalInstructions) ||
        !r.getDouble(&p0.totalL2Misses) ||
        !r.getDoubles(&p0.coreInstructions) ||
        !r.getDoubles(&p0.coreBusySeconds) ||
        !r.getU64(&switches0) || !r.getDouble(&corun_busy0) ||
        !temp_stat.tryRestore(r) || !r.getDouble(&freq_time_mhz) ||
        !r.getDoubles(&residency) ||
        !r.getDouble(&breakdown.baseline) ||
        !r.getDouble(&breakdown.coreDynamic) ||
        !r.getDouble(&breakdown.l2Traffic) ||
        !r.getDouble(&breakdown.dram) ||
        !r.getDouble(&breakdown.leakage) ||
        !r.getDouble(&breakdown.dvfsSwitch) ||
        !r.getU64(&window_ticks) || !r.getDouble(&window_wall) ||
        !r.getDouble(&window_end))
        return false;

    phase_ = static_cast<Phase>(phase);
    reported_ = reported;
    t0_ = t0;
    e0_ = e0;
    p0_ = std::move(p0);
    switches0_ = switches0;
    corunBusy0_ = corun_busy0;
    tempStat_ = temp_stat;
    freqTimeMhz_ = freq_time_mhz;
    residency_ = std::move(residency);
    breakdownSum_ = breakdown;
    windowTicks_ = window_ticks;
    windowWall_ = window_wall;
    windowEnd_ = window_end;
    return true;
}

RunCell
makeRunCell(const ExperimentConfig &config, const WebPage *page,
            const KernelSpec *kernel, const std::string &label,
            std::unique_ptr<Governor> governor,
            std::optional<size_t> initial_freq, const FaultSchedule *faults)
{
    RunCell cell;
    cell.config = config;
    cell.kernel = kernel;
    if (kernel)
        cell.corun = std::make_unique<CorunTask>(
            *kernel, hashLabel("corun:" + label) % 4096);
    cell.governor = std::move(governor);
    if (faults)
        cell.fault = std::make_unique<FaultInjector>(*faults);
    cell.params.page = page;
    cell.params.corun = cell.corun.get();
    cell.params.label = label;
    cell.params.governor = cell.governor.get();
    cell.params.initialFreq = initial_freq;
    cell.params.fault = cell.fault.get();
    return cell;
}

} // namespace dora
