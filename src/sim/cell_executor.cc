#include "sim/cell_executor.hh"

#include <algorithm>
#include <csignal>
#include <optional>

#include "common/logging.hh"
#include "common/rng.hh"
#include "exec/proc/supervisor.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runner/measurement_io.hh"

namespace dora
{

namespace
{

/**
 * Everything a run reads besides the OPP indices its governor
 * requests, so cells with equal keys may share one simulation. The
 * cheap fields come first: equality stops at the first that differs.
 */
struct GangKey
{
    std::string label;
    const WebPage *page = nullptr;
    const KernelSpec *kernel = nullptr;
    std::optional<size_t> initialFreq;
    double intervalSec = 0.0;
    ExperimentConfig config;

    bool operator==(const GangKey &) const = default;
};

/**
 * @p cell's gang key, or nothing when it must run alone: a trace or a
 * fault injector belongs to one run, a run that may end at its load
 * floor (Params::discardUnlessFinished) ends where a rider need not,
 * and a co-runner that makeRunCell() did not build has no kernel to
 * compare.
 */
std::optional<GangKey>
gangKey(const RunCell &cell)
{
    const RunContext::Params &p = cell.params;
    if (p.fault || !p.governor || p.discardUnlessFinished ||
        TraceSession::active() || (p.corun && !cell.kernel))
        return std::nullopt;
    return GangKey{p.label, p.page, cell.kernel, p.initialFreq,
                   p.governor->decisionIntervalSec(), cell.config};
}

} // namespace

CellExecutor::CellExecutor(CellTiers tiers) : tiers_(std::move(tiers))
{
    if (tiers_.jobs == 0)
        tiers_.jobs = defaultJobCount();
}

std::vector<CellExecutor::Gang>
CellExecutor::planGangs(size_t first, size_t count,
                        const CellFn &make_cell) const
{
    std::vector<Gang> gangs;
    // Each keyed gang's key and index into gangs, by label.
    std::map<std::string, std::vector<std::pair<GangKey, size_t>>> keyed;
    for (size_t i = first; i < first + count; ++i) {
        std::optional<GangKey> key = gangKey(make_cell(i));
        if (key) {
            auto &bucket = keyed[key->label];
            const auto same = std::find_if(
                bucket.begin(), bucket.end(),
                [&](const auto &entry) { return entry.first == *key; });
            if (same != bucket.end()) {
                gangs[same->second].push_back(i);
                continue;
            }
            bucket.emplace_back(std::move(*key), gangs.size());
        }
        gangs.push_back({i});
    }
    // A gang of several cells takes about as long as its passes; run
    // last, it would leave the other threads idle at the end.
    std::stable_partition(gangs.begin(), gangs.end(),
                          [](const Gang &g) { return g.size() > 1; });
    return gangs;
}

void
CellExecutor::runGang(const Gang &gang, const CellFn &make_cell,
                      const MeasuredFn &measured) const
{
    static MetricCounter &rider_cells =
        MetricsRegistry::global().counter("runner.rider_cells");
    static MetricCounter &rider_drops =
        MetricsRegistry::global().counter("runner.rider_drops");

    std::map<size_t, RunMeasurement> resolved;
    Gang pending = gang;  // unresolved cells
    while (!pending.empty()) {
        // One pass: build the unresolved cells afresh; the first leads
        // and the others ride it.
        std::vector<RunCell> cells;
        for (size_t i : pending)
            cells.push_back(make_cell(i));
        RunCell &leader = cells.front();
        for (size_t r = 1; r < cells.size(); ++r)
            leader.params.riders.push_back(cells[r].params.governor);
        RunContext run(leader.config, leader.params);
        while (!run.done())
            run.advance();
        RunMeasurement m = run.finish();

        Gang dropped;
        for (size_t r = 1; r < pending.size(); ++r) {
            if (!run.riderKept(r - 1)) {
                dropped.push_back(pending[r]);
                rider_drops.add();
                continue;
            }
            RunMeasurement ridden = m;
            ridden.governor = cells[r].params.governor->name();
            resolved.emplace(pending[r], std::move(ridden));
            rider_cells.add();
        }
        resolved.emplace(pending.front(), std::move(m));
        pending = std::move(dropped);
    }
    for (auto &[cell, m] : resolved)
        measured(cell, std::move(m));
}

void
CellExecutor::runCells(size_t first, size_t count, const CellFn &make_cell,
                       const MeasuredFn &measured) const
{
    OrderedSink<RunMeasurement> sink(measured, first);
    for (const Gang &gang : planGangs(first, count, make_cell))
        runGang(gang, make_cell, [&sink](size_t i, RunMeasurement &&m) {
            sink.deliver(i, std::move(m));
        });
}

std::vector<RunMeasurement>
CellExecutor::measure(size_t n, const CellFn &make_cell,
                      CellCampaign campaign) const
{
    const std::vector<Gang> gangs = planGangs(0, n, make_cell);
    campaign.hash = planCampaignHash(campaign.hash, n, gangs);
    MetricCounter *done = nullptr;
    if (campaign.queuedMetric)
        MetricsRegistry::global().counter(campaign.queuedMetric).add(n);
    if (campaign.doneMetric)
        done = &MetricsRegistry::global().counter(campaign.doneMetric);

    // A unit is its gang's measurements in ascending cell order.
    using Batch = std::vector<RunMeasurement>;
    const WireCodec<Batch> batch_codec{
        [](const Batch &batch) {
            std::vector<std::string> payloads;
            payloads.reserve(batch.size());
            for (const RunMeasurement &m : batch)
                payloads.push_back(serializeRunMeasurement(m));
            return packPayloads(payloads);
        },
        [](std::string_view bytes, Batch *out) {
            std::vector<std::string> payloads;
            if (!tryUnpackPayloads(bytes, &payloads))
                return false;
            Batch batch(payloads.size());
            for (size_t i = 0; i < payloads.size(); ++i)
                if (!tryDeserializeRunMeasurement(payloads[i], &batch[i]))
                    return false;
            *out = std::move(batch);
            return true;
        }};

    std::vector<RunMeasurement> out(n);
    forEachUnit<Batch>(
        gangs.size(),
        [&](size_t u) {
            Batch batch;
            runGang(gangs[u], make_cell, [&](size_t, RunMeasurement &&m) {
                batch.push_back(std::move(m));
            });
            return batch;
        },
        [&](size_t u, Batch &&batch) {
            const Gang &gang = gangs[u];
            if (batch.size() != gang.size())
                fatal("%s: unit %zu holds %zu cells, not %zu",
                      campaign.name.c_str(), u, batch.size(),
                      gang.size());
            for (size_t k = 0; k < gang.size(); ++k)
                out[gang[k]] = std::move(batch[k]);
            if (done)
                done->add(batch.size());
        },
        batch_codec, campaign);
    return out;
}

uint64_t
CellExecutor::planCampaignHash(uint64_t hash, size_t n,
                               const std::vector<Gang> &gangs)
{
    // A unit ships its gang's results packed in ascending cell order,
    // so the plan (which cells each unit holds) shapes the journal's
    // unit space.
    std::string plan = "gang-units " + hexU64(hash) + " cells " +
        std::to_string(n);
    for (const Gang &gang : gangs) {
        plan += " | ";
        for (size_t i : gang)
            plan += std::to_string(i) + ",";
    }
    return hashLabel(plan);
}

void
CellExecutor::runInWorkers(
    size_t n, const CellCampaign &campaign,
    const std::function<std::string(uint64_t)> &encode_unit,
    const std::function<bool(uint64_t, const std::string &)> &accept,
    const std::function<void(uint64_t)> &recompute) const
{
    const char *name = campaign.name.c_str();
    ProcSweepConfig proc;
    proc.workers = tiers_.workers;
    proc.campaignHash = campaign.hash;
    if (!tiers_.journalStem.empty())
        proc.journalPath = tiers_.journalStem + "." +
            hexU64(campaign.hash) + ".jrn";
    // The completion hook is the only consumer of payloads, so the
    // supervisor's memory is O(workers + reorder window).
    proc.onUnitComplete = [&](uint64_t unit, const std::string &payload) {
        if (!accept(unit, payload))
            fatal("%s: unit %llu payload from the process tier does "
                  "not decode (journal from an older build?); delete "
                  "%s and re-run",
                  name, static_cast<unsigned long long>(unit),
                  proc.journalPath.c_str());
    };

    const ProcSweepReport report = runProcSweep(proc, n, encode_unit);
    if (report.drained) {
        // Progress (if journaled) is durable; die by the original
        // signal so scripts see the conventional status and the
        // truncated-trace flush still runs. A rerun resumes.
        warn("%s: campaign interrupted by signal %d with %llu units "
             "durable; re-run to resume",
             name, report.drainSignal,
             static_cast<unsigned long long>(report.unitsRun +
                                             report.unitsResumed));
        ::raise(report.drainSignal);
        fatal("%s: campaign interrupted", name);  // signal was ignored
    }
    // A quarantined unit (its worker kept dying on it) is recomputed
    // here, so the grid still comes back whole and a deterministic
    // crash surfaces in a debuggable process.
    for (uint64_t u = 0; u < n; ++u)
        if (!report.completed[u]) {
            warn("%s: unit %llu was quarantined by the process tier; "
                 "recomputing in-process",
                 name, static_cast<unsigned long long>(u));
            recompute(u);
        }
}

} // namespace dora
