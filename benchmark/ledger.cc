#include "ledger.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <optional>

#include "browser/page_corpus.hh"
#include "common/exact_ticks.hh"
#include "common/rng.hh"
#include "exec/thread_pool.hh"
#include "fault/fault_injector.hh"
#include "fleet/aggregate.hh"
#include "runner/run_context.hh"
#include "workloads/corun_task.hh"

namespace bench
{

using namespace dora;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
        (values[hi] - values[lo]);
}

void
QuantumFit::add(const Terms &x, double ns)
{
    for (int i = 0; i < kTerms; ++i) {
        for (int j = 0; j < kTerms; ++j)
            xtx[i][j] += x[i] * x[j];
        xty[i] += x[i] * ns;
    }
}

QuantumFit::Terms
QuantumFit::solve() const
{
    // Gauss-Jordan with partial pivoting on the normal equations; a
    // pivot that vanishes relative to its diagonal marks a term the
    // quanta never exercised, which is dropped (coefficient 0).
    double m[kTerms][kTerms + 1];
    for (int i = 0; i < kTerms; ++i) {
        for (int j = 0; j < kTerms; ++j)
            m[i][j] = xtx[i][j];
        m[i][kTerms] = xty[i];
    }
    int pivot_row[kTerms];
    bool used[kTerms] = {};
    for (int col = 0; col < kTerms; ++col) {
        pivot_row[col] = -1;
        int p = -1;
        for (int r = 0; r < kTerms; ++r)
            if (!used[r] &&
                (p < 0 || std::abs(m[r][col]) > std::abs(m[p][col])))
                p = r;
        if (std::abs(m[p][col]) <= 1e-12 * std::max(xtx[col][col], 1.0))
            continue;
        used[p] = true;
        pivot_row[col] = p;
        for (int r = 0; r < kTerms; ++r) {
            if (r == p)
                continue;
            const double f = m[r][col] / m[p][col];
            for (int c = 0; c <= kTerms; ++c)
                m[r][c] -= f * m[p][c];
        }
    }
    Terms coef = {};
    for (int col = 0; col < kTerms; ++col)
        if (pivot_row[col] >= 0)
            coef[col] = m[pivot_row[col]][kTerms] / m[pivot_row[col]][col];
    return coef;
}

std::string
walkFitProblem(const QuantumFit::Terms &coef, double fitted_ns_per_probe,
               double timed_ns_per_probe)
{
    if (coef[2] < 0.0 || coef[3] < 0.0)
        return "negative walk coefficient (L1 " + std::to_string(coef[2]) +
            " ns, L2 " + std::to_string(coef[3]) + " ns per probe)";
    if (!(timed_ns_per_probe > 0.0))
        return "no directly timed walk to check the fit against";
    const double gap = fitted_ns_per_probe / timed_ns_per_probe - 1.0;
    if (!(std::abs(gap) <= kProbeTolerance))
        return "fitted walk " + std::to_string(fitted_ns_per_probe) +
            " ns per L1 probe is " + std::to_string(100.0 * gap) +
            "% off the timed " + std::to_string(timed_ns_per_probe);
    return "";
}

namespace
{

/** Times every decision of the governor it wraps; forwards the rest. */
class TimedGovernor : public Governor
{
  public:
    explicit TimedGovernor(std::unique_ptr<Governor> inner)
        : inner_(std::move(inner))
    {
    }

    const std::string &name() const override { return inner_->name(); }

    double decisionIntervalSec() const override
    {
        return inner_->decisionIntervalSec();
    }

    size_t decideFrequencyIndex(const GovernorView &view) override
    {
        const int64_t t0 = nowNs();
        const size_t f = inner_->decideFrequencyIndex(view);
        ns_ += static_cast<double>(nowNs() - t0);
        ++calls_;
        return f;
    }

    void reset() override { inner_->reset(); }

    void snapshot(SnapshotWriter &w) const override { inner_->snapshot(w); }

    bool tryRestore(SnapshotReader &r) override
    {
        return inner_->tryRestore(r);
    }

    double ns() const { return ns_; }
    uint64_t calls() const { return calls_; }

  private:
    std::unique_ptr<Governor> inner_;
    double ns_ = 0.0;
    uint64_t calls_ = 0;
};

/** Everything one traced cell is built from. */
struct CellInput
{
    ExperimentConfig config;
    const WebPage *page = nullptr;
    const KernelSpec *kernel = nullptr;  //!< null: page alone
    std::string label;
    std::string governor;                //!< registry name when not pinned
    std::optional<size_t> pinned;        //!< offline-opt sweep OPP
    std::optional<uint64_t> faultSeed;   //!< fleet devices with faults
};

CellInput
gridCell(const ExperimentConfig &config, const WorkloadSpec &w)
{
    CellInput in;
    in.config = config;
    in.page = w.page;
    in.kernel = w.kernel;
    in.label = w.label();
    return in;
}

/** One fleet cell, built the way FleetEngine builds it. */
CellInput
fleetCell(const FleetCampaignConfig &config, const DeviceSpec &dev,
          size_t governor)
{
    CellInput in;
    in.config = config.base;
    in.config.freqScale = dev.freqScale;
    in.config.voltageScale = dev.voltageScale;
    in.config.thermalResistanceScale = dev.thermalResistanceScale;
    in.config.ambientC = dev.ambientC;
    in.page = &PageCorpus::byName(dev.page);
    if (dev.corun != MemIntensity::None)
        in.kernel = &KernelCatalog::representative(dev.corun);
    in.label = dev.label(config.spec.seed);
    in.governor = config.governors[governor];
    if (dev.faulty)
        in.faultSeed = dev.faultSeed;
    return in;
}

/** A grid round's runAll cells: each workload under every paper governor. */
std::vector<CellInput>
gridInputs(const Round &round)
{
    std::vector<CellInput> inputs;
    for (const WorkloadSpec &w : round.grid)
        for (const std::string &g : ComparisonHarness::paperGovernors()) {
            inputs.push_back(gridCell(round.config, w));
            inputs.back().governor = g;
        }
    return inputs;
}

/** Cumulative probes of the modeled caches (every one is a walk's). */
struct ProbeCount
{
    uint64_t l1 = 0;
    uint64_t l2 = 0;
};

ProbeCount
probes(const MemSystem &mem)
{
    ProbeCount p;
    for (uint32_t c = 0; c < mem.config().numCores; ++c)
        p.l1 += mem.l1(c).totalStats().accesses;
    p.l2 = mem.l2().totalStats().accesses;
    return p;
}

/** Build, drive and finish one cell from public constructors. */
RunMeasurement
runCell(const CellInput &in,
        const std::shared_ptr<const ModelBundle> &models, int64_t epoch,
        CellTrace &trace)
{
    trace.startNs = nowNs() - epoch;
    const int64_t t0 = nowNs();

    std::unique_ptr<Governor> inner =
        in.pinned ? std::make_unique<FixedGovernor>(*in.pinned)
                  : makeNamedGovernor(in.governor, models);
    TimedGovernor governor(std::move(inner));
    std::unique_ptr<CorunTask> corun;
    if (in.kernel)
        corun = std::make_unique<CorunTask>(
            *in.kernel, hashLabel("corun:" + in.label) % 4096);
    std::optional<FaultInjector> fault;
    if (in.faultSeed)
        fault.emplace(FaultSchedule::combined(*in.faultSeed));

    RunContext::Params params;
    params.page = in.page;
    params.corun = corun.get();
    params.label = in.label;
    params.governor = &governor;
    params.initialFreq = in.pinned;
    params.fault = fault ? &*fault : nullptr;
    RunContext ctx(in.config, params);
    const int64_t t1 = nowNs();
    trace.buildNs = t1 - t0;
    trace.exact = ctx.exactTicks();

    const MissRateEstimator &sampling = ctx.soc().sampling();
    if (trace.exact) {
        for (;;) {
            const int64_t s0 = nowNs();
            const RunContext::StepPlan plan = ctx.advanceBegin();
            if (plan == RunContext::StepPlan::Finished)
                break;
            int64_t walk = 0;
            if (plan == RunContext::StepPlan::Walk) {
                const int64_t w0 = nowNs();
                ctx.soc().tickWalkLocal();
                walk = nowNs() - w0;
                ++trace.walked;
            }
            ctx.advanceFinish();
            trace.runNs += nowNs() - s0;
            trace.walkNs += static_cast<double>(walk);
            ++trace.quanta;
        }
    } else {
        ProbeCount p0 = probes(ctx.soc().mem());
        while (!ctx.done()) {
            const double g0 = governor.ns();
            const uint64_t k0 = ctx.sim().tickCount();
            const int64_t q0 = nowNs();
            ctx.advance();
            const int64_t q = nowNs() - q0;
            const ProbeCount p1 = probes(ctx.soc().mem());
            trace.runNs += q;
            ++trace.quanta;
            trace.fitRows.push_back(
                {{1.0, static_cast<double>(ctx.sim().tickCount() - k0),
                  static_cast<double>(p1.l1 - p0.l1),
                  static_cast<double>(p1.l2 - p0.l2)},
                 static_cast<double>(q) - (governor.ns() - g0)});
            p0 = p1;
        }
        trace.walked = sampling.sampledTicks();
    }
    const int64_t t2 = nowNs();
    RunMeasurement m = ctx.finish();
    const int64_t t3 = nowNs();
    trace.finishNs = t3 - t2;
    trace.endNs = t3 - epoch;

    trace.governor = governor.name();
    trace.governorNs = governor.ns();
    trace.decisions = governor.calls();
    trace.ticks = ctx.sim().tickCount();
    trace.batchedTicks = ctx.sim().macroBatchedTicks();
    trace.reused = sampling.reusedTicks();
    trace.seeded = sampling.seededPhases();
    trace.demotions = sampling.demotions();
    trace.invalidations = sampling.invalidations();
    const ProbeCount total = probes(ctx.soc().mem());
    trace.l1Probes = total.l1;
    trace.l2Probes = total.l2;
    return m;
}

struct TracedCell
{
    RunMeasurement m;
    CellTrace trace;
    bool sane = true;
};

} // namespace

Ledger::Ledger(Kind kind) : kind_(kind), epochNs_(nowNs()) {}

RoundResult
Ledger::runRound(const Round &round, const RunEnv &env)
{
    jobs_ = env.jobs;
    const int64_t r0 = nowNs();
    const uint64_t round_id = nextSpanId_++;
    const size_t first_cell = cells_.size();
    RoundResult out;
    uint64_t chain = digestSeed(round.kind);
    int64_t fold = 0;

    const auto run_cells = [&](const std::vector<CellInput> &inputs) {
        std::vector<TracedCell> done = parallelMap<TracedCell>(
            inputs.size(),
            [&](size_t i) {
                TracedCell c;
                c.m = runCell(inputs[i], env.models, epochNs_, c.trace);
                return c;
            },
            env.jobs);
        std::vector<RunMeasurement> ms;
        ms.reserve(done.size());
        for (size_t i = 0; i < done.size(); ++i) {
            if (!measurementSane(done[i].m, inputs[i].config))
                ++out.failed;
            cells_.push_back(std::move(done[i].trace));
            ms.push_back(std::move(done[i].m));
        }
        out.cells += ms.size();
        return ms;
    };

    if (round.kind == Kind::FleetDora) {
        const FleetCampaignConfig &config = round.fleet;
        const FleetSpec &spec = config.spec;
        const size_t gcount = config.governors.size();
        const size_t per = config.chunkDevices;
        const size_t chunks = (spec.devices + per - 1) / per;
        struct Chunk
        {
            FleetShardAggregate agg;
            std::vector<TracedCell> cells;
        };
        const std::vector<Chunk> done = parallelMap<Chunk>(
            chunks,
            [&](size_t c) {
                Chunk chunk;
                const size_t first_device = c * per;
                const size_t devices =
                    std::min(per, spec.devices - first_device);
                chunk.agg = FleetShardAggregate::forChunk(
                    gcount, first_device * gcount);
                for (size_t d = 0; d < devices; ++d) {
                    const DeviceSpec dev =
                        sampleDevice(spec, first_device + d);
                    const std::string cohort = dev.cohort();
                    for (size_t g = 0; g < gcount; ++g) {
                        const CellInput in = fleetCell(config, dev, g);
                        TracedCell cell;
                        cell.m = runCell(in, env.models, epochNs_,
                                         cell.trace);
                        cell.sane = measurementSane(cell.m, in.config);
                        const int64_t a0 = nowNs();
                        chunk.agg.pushCell(g, cohort, g == 0, cell.m);
                        cell.trace.aggregateNs =
                            static_cast<double>(nowNs() - a0);
                        chunk.cells.push_back(std::move(cell));
                    }
                }
                return chunk;
            },
            env.jobs);
        const int64_t f0 = nowNs();
        FleetShardAggregate campaign =
            FleetShardAggregate::forCampaign(gcount);
        for (const Chunk &chunk : done) {
            campaign.merge(chunk.agg);
            for (const TracedCell &cell : chunk.cells) {
                if (!cell.sane)
                    ++out.failed;
                cells_.push_back(cell.trace);
            }
            out.cells += chunk.cells.size();
        }
        fold += nowNs() - f0;
        out.digest = chainDigest(chain, campaign.digest());
    } else {
        for (const RunMeasurement &m : run_cells(gridInputs(round)))
            chain = chainDigest(chain, runMeasurementDigest(m));
        ComparisonHarness harness(round.config, env.models, env.jobs);
        const size_t freqs = harness.runner().freqTable().size();
        std::vector<CellInput> inputs;
        for (const WorkloadSpec &w : round.offline)
            for (size_t f = 0; f < freqs; ++f) {
                inputs.push_back(gridCell(round.config, w));
                inputs.back().pinned = f;
            }
        std::vector<RunMeasurement> sweeps = run_cells(inputs);
        const int64_t f0 = nowNs();
        for (size_t w = 0; w < round.offline.size(); ++w) {
            std::vector<RunMeasurement> sweep(
                std::make_move_iterator(sweeps.begin() + w * freqs),
                std::make_move_iterator(sweeps.begin() + (w + 1) * freqs));
            chain = chainDigest(
                chain,
                runMeasurementDigest(
                    harness.pickOfflineOpt(std::move(sweep))));
        }
        fold += nowNs() - f0;
        out.digest = chain;
    }

    const int64_t r1 = nowNs();
    roundWallNs_ += r1 - r0;
    foldNs_ += fold;
    spans_.push_back({round_id, 0, "round", r0 - epochNs_, r1 - epochNs_});
    for (size_t i = first_cell; i < cells_.size(); ++i) {
        const CellTrace &c = cells_[i];
        const uint64_t cell_id = nextSpanId_++;
        spans_.push_back({cell_id, round_id, "cell:" + c.governor,
                          c.startNs, c.endNs});
        const int64_t b1 = c.startNs + c.buildNs;
        spans_.push_back({nextSpanId_++, cell_id, "build", c.startNs, b1});
        spans_.push_back(
            {nextSpanId_++, cell_id, "run", b1, c.endNs - c.finishNs});
        spans_.push_back({nextSpanId_++, cell_id, "finish",
                          c.endNs - c.finishNs, c.endNs});
    }
    return out;
}

void
Ledger::calibrateWalk(const Round &round, const RunEnv &env)
{
    std::vector<CellInput> all;
    if (round.kind == Kind::FleetDora) {
        const FleetCampaignConfig &config = round.fleet;
        for (size_t d = 0; d < config.spec.devices; ++d) {
            const DeviceSpec dev = sampleDevice(config.spec, d);
            for (size_t g = 0; g < config.governors.size(); ++g)
                all.push_back(fleetCell(config, dev, g));
        }
    } else {
        all = gridInputs(round);
    }
    // Two cells per worker, spread over the round.
    const size_t n = std::min<size_t>(all.size(), 2 * env.jobs);
    const bool was_exact = exactTicksMode();
    setExactTicksMode(true);
    const std::vector<CellTrace> done = parallelMap<CellTrace>(
        n,
        [&](size_t i) {
            CellTrace trace;
            runCell(all[i * all.size() / n], env.models, epochNs_, trace);
            return trace;
        },
        env.jobs);
    setExactTicksMode(was_exact);
    for (const CellTrace &trace : done) {
        timedWalkNs_ += trace.walkNs;
        timedL1Probes_ += static_cast<double>(trace.l1Probes);
    }
}

void
Ledger::noteTraining(double seconds, uint64_t ticks, double reuse_frac)
{
    trainSec_ = seconds;
    trainTicks_ = ticks;
    trainReuse_ = reuse_frac;
}

Ledger::FitSummary
Ledger::summarizeFit() const
{
    FitSummary s;
    QuantumFit fit;
    for (const CellTrace &c : cells_)
        for (const Quantum &q : c.fitRows) {
            fit.add(q.x, q.ns);
            s.any = true;
        }
    s.coef = fit.solve();
    for (const CellTrace &c : cells_) {
        if (c.exact)
            continue;
        s.walkNs += s.coef[2] * static_cast<double>(c.l1Probes) +
            s.coef[3] * static_cast<double>(c.l2Probes);
        s.l1Probes += static_cast<double>(c.l1Probes);
        for (const Quantum &q : c.fitRows) {
            double fitted = 0.0;
            for (int t = 0; t < QuantumFit::kTerms; ++t)
                fitted += s.coef[t] * q.x[t];
            s.observedNs += q.ns;
            s.residualNs += std::abs(q.ns - fitted);
        }
    }
    return s;
}

std::string
Ledger::invalidReason() const
{
    const FitSummary fit = summarizeFit();
    if (!fit.any)
        return "";  // every cell ran exact ticks: the walk was timed
    const double fitted =
        fit.l1Probes > 0.0 ? fit.walkNs / fit.l1Probes : 0.0;
    const double timed =
        timedL1Probes_ > 0.0 ? timedWalkNs_ / timedL1Probes_ : 0.0;
    return walkFitProblem(fit.coef, fitted, timed);
}

std::map<std::string, double>
Ledger::metrics(double untraced_wall_s) const
{
    const FitSummary fit = summarizeFit();
    const QuantumFit::Terms &coef = fit.coef;

    double cell_ns = 0.0, gov_ns = 0.0, walk_ns = 0.0, nowalk_ns = 0.0;
    double build_ns = 0.0, finish_ns = 0.0, gap_ns = 0.0;
    double ticks = 0.0, walked = 0.0, reused = 0.0, batched = 0.0;
    double l1 = 0.0, l2 = 0.0, decisions = 0.0, quanta = 0.0;
    double seeded = 0.0, demotions = 0.0, invalidations = 0.0;
    double aggregate_ns = 0.0;
    std::vector<double> cell_ms;
    for (const CellTrace &c : cells_) {
        const double wall = static_cast<double>(c.endNs - c.startNs);
        // Exact cells measure the walk; adaptive cells price their
        // probes with the run-wide fit, and the tick and per-quantum
        // terms are the non-walk rest of the run.
        const double walk = c.exact
            ? c.walkNs
            : coef[2] * static_cast<double>(c.l1Probes) +
                coef[3] * static_cast<double>(c.l2Probes);
        const double nowalk = c.exact
            ? static_cast<double>(c.runNs) - c.walkNs - c.governorNs
            : coef[0] * static_cast<double>(c.quanta) +
                coef[1] * static_cast<double>(c.ticks);
        cell_ns += wall;
        gov_ns += c.governorNs;
        walk_ns += walk;
        nowalk_ns += nowalk;
        build_ns += static_cast<double>(c.buildNs);
        finish_ns += static_cast<double>(c.finishNs);
        gap_ns += wall -
            static_cast<double>(c.buildNs + c.runNs + c.finishNs);
        aggregate_ns += c.aggregateNs;
        ticks += static_cast<double>(c.ticks);
        walked += static_cast<double>(c.walked);
        reused += static_cast<double>(c.reused);
        batched += static_cast<double>(c.batchedTicks);
        l1 += static_cast<double>(c.l1Probes);
        l2 += static_cast<double>(c.l2Probes);
        decisions += static_cast<double>(c.decisions);
        quanta += static_cast<double>(c.quanta);
        seeded += static_cast<double>(c.seeded);
        demotions += static_cast<double>(c.demotions);
        invalidations += static_cast<double>(c.invalidations);
        cell_ms.push_back(wall * 1e-6);
    }
    const double cells = static_cast<double>(cells_.size());
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    // Cells plus the separately timed aggregation and round-level fold
    // (chunk merge, offline-opt pick) are the work the ledger covers;
    // unattributed is cell time outside build, quanta and finish. That
    // the split of the quanta is right is invalidReason()'s question.
    const double covered = cell_ns + aggregate_ns +
        static_cast<double>(foldNs_);

    std::map<std::string, double> out;
    out["mem.walk_ns_per_l1_probe"] = ratio(walk_ns, l1);
    out["mem.walk_ns_per_walked_tick"] = ratio(walk_ns, walked);
    out["mem.walk_share"] = ratio(walk_ns, cell_ns);
    out["mem.walked_ticks"] = walked;
    out["mem.reuse_frac"] = ratio(reused, reused + walked);
    out["mem.seeded_phases"] = seeded;
    out["mem.demotions"] = demotions;
    out["mem.invalidations"] = invalidations;
    out["mem.l1_probes"] = l1;
    out["mem.l2_probes"] = l2;
    out["sim.ticks"] = ticks;
    out["sim.batched_frac"] = ratio(batched, ticks);
    out["sim.nowalk_ns_per_tick"] = ratio(nowalk_ns, ticks);
    out["runner.quanta"] = quanta;
    out["governor.decisions"] = decisions;
    out["governor.decide_ns"] = ratio(gov_ns, decisions);
    out["governor.share"] = ratio(gov_ns, cell_ns);
    out["runner.cells"] = cells;
    out["runner.cell_ms_p50"] = quantile(cell_ms, 0.50);
    out["runner.cell_ms_p95"] = quantile(cell_ms, 0.95);
    out["runner.build_us"] = ratio(build_ns, cells) * 1e-3;
    out["runner.finish_us"] = ratio(finish_ns, cells) * 1e-3;
    out["exec.parallel_eff"] = ratio(
        cell_ns, static_cast<double>(jobs_) *
            static_cast<double>(roundWallNs_));
    out["dora.train_ticks"] = static_cast<double>(trainTicks_);
    out["dora.train_reuse_frac"] = trainReuse_;
    out["runner.unattributed_share"] = ratio(gap_ns, covered);
    out["trace.overhead_frac"] = untraced_wall_s > 0.0
        ? static_cast<double>(roundWallNs_) * 1e-9 / untraced_wall_s - 1.0
        : 0.0;
    return out;
}

std::map<std::string, double>
Ledger::extras() const
{
    std::map<std::string, double> gov_ns, gov_calls;
    double aggregate_ns = 0.0;
    for (const CellTrace &c : cells_) {
        gov_ns[c.governor] += c.governorNs;
        gov_calls[c.governor] += static_cast<double>(c.decisions);
        aggregate_ns += c.aggregateNs;
    }
    std::map<std::string, double> out;
    for (const auto &[name, ns] : gov_ns)
        if (gov_calls[name] > 0.0)
            out["governor.decide_ns." + name] = ns / gov_calls[name];
    if (kind_ == Kind::FleetDora && !cells_.empty())
        out["fleet.aggregate_us_per_cell"] =
            (aggregate_ns + static_cast<double>(foldNs_)) * 1e-3 /
            static_cast<double>(cells_.size());
    if (needsBundle(kind_)) {
        out["dora.train_s"] = trainSec_;
        const FitSummary fit = summarizeFit();
        out["ledger.fit_residual_share"] =
            fit.observedNs > 0.0 ? fit.residualNs / fit.observedNs : 0.0;
        out["ledger.timed_walk_ns_per_l1_probe"] = timedL1Probes_ > 0.0
            ? timedWalkNs_ / timedL1Probes_
            : 0.0;
    }
    return out;
}

bool
Ledger::writeSpans(const std::string &path) const
{
    std::ofstream out(path);
    for (const Span &s : spans_)
        out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
            << ",\"end_ns\":" << s.endNs << "}\n";
    out.flush();
    return static_cast<bool>(out);
}

} // namespace bench
