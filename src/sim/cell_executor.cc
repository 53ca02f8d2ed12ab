#include "sim/cell_executor.hh"

#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "obs/metrics.hh"
#include "obs/trace.hh"

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

CellExecutor::CellExecutor(unsigned jobs)
    : jobs_(jobs == 0 ? defaultJobCount() : jobs)
{
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
                      const CellCampaign &campaign) const
{
    const std::vector<Gang> gangs = planGangs(0, n, make_cell);
    MetricCounter *done = nullptr;
    if (campaign.queuedMetric)
        MetricsRegistry::global().counter(campaign.queuedMetric).add(n);
    if (campaign.doneMetric)
        done = &MetricsRegistry::global().counter(campaign.doneMetric);

    // Gangs partition the cells, so each writes only its own slots.
    std::vector<RunMeasurement> out(n);
    parallelFor(
        gangs.size(),
        [&](size_t u) {
            runGang(gangs[u], make_cell, [&](size_t i, RunMeasurement &&m) {
                out[i] = std::move(m);
            });
            if (done)
                done->add(gangs[u].size());
        },
        jobs_);
    return out;
}

} // namespace dora
