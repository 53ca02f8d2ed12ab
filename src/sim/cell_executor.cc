#include "sim/cell_executor.hh"

#include <csignal>

#include "common/lanes.hh"
#include "common/rng.hh"
#include "exec/proc/supervisor.hh"
#include "obs/trace.hh"
#include "sim/lane_batch.hh"

namespace dora
{

CellExecutor::CellExecutor(CellTiers tiers) : tiers_(std::move(tiers))
{
    if (tiers_.jobs == 0)
        tiers_.jobs = defaultJobCount();
    if (tiers_.lanes == 0)
        tiers_.lanes = defaultLaneCount();
}

void
CellExecutor::runCells(size_t first, size_t count, const CellFn &make_cell,
                       const MeasuredFn &measured) const
{
    const size_t end = first + count;
    for (size_t at = first; at < end; at += tiers_.lanes) {
        const size_t width = std::min<size_t>(tiers_.lanes, end - at);
        std::vector<RunCell> cells;
        std::vector<LaneBatchSimulator::LaneSpec> specs;
        cells.reserve(width);
        specs.reserve(width);
        for (size_t i = 0; i < width; ++i) {
            cells.push_back(make_cell(at + i));
            specs.push_back({cells.back().config, cells.back().params});
        }
        std::vector<RunMeasurement> ms =
            LaneBatchSimulator(specs).finishAll();
        for (size_t i = 0; i < width; ++i)
            measured(at + i, std::move(ms[i]));
    }
}

std::vector<RunMeasurement>
CellExecutor::measure(size_t n, const CellFn &make_cell,
                      const CellCampaign &campaign) const
{
    return mapCells<RunMeasurement>(
        n, make_cell,
        [](size_t, RunMeasurement &&m) { return std::move(m); },
        {serializeRunMeasurement, tryDeserializeRunMeasurement},
        campaign);
}

uint64_t
CellExecutor::batchCampaignHash(uint64_t hash, size_t n) const
{
    // Units are lane batches shipped as packed payloads, so the cell
    // count and the lane width shape the journal's unit space.
    return hashLabel("lane-batches " + hexU64(hash) + " cells " +
                     std::to_string(n) + " lanes " +
                     std::to_string(tiers_.lanes));
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
    proc.precompletedPrefix = campaign.durablePrefix;
    // The completion hook consumes every payload, so the supervisor
    // keeps none: its memory is O(workers + reorder window).
    proc.discardResults = true;
    proc.onUnitComplete = [&](uint64_t unit,
                              const std::string &payload) -> uint64_t {
        if (!accept(unit, payload))
            fatal("%s: unit %llu payload from the process tier does "
                  "not decode (journal from an older build?); delete "
                  "%s and re-run",
                  name, static_cast<unsigned long long>(unit),
                  proc.journalPath.c_str());
        return campaign.durableFloor ? campaign.durableFloor() : 0;
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
                                             report.unitsResumed +
                                             report.unitsPrecompleted));
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
