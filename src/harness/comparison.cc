#include "harness/comparison.hh"

#include <cmath>
#include <optional>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "fault/fault_injector.hh"
#include "obs/metrics.hh"

namespace dora
{

namespace
{

/**
 * Canonical governor registry. Order is the dense id; interactive is
 * id 0 because it is the normalization baseline.
 */
const std::vector<std::string> &
governorRegistry()
{
    static const std::vector<std::string> names = {
        "interactive", "performance", "powersave", "ondemand",
        "DL", "EE", "DORA", "DORA_no_lkg", "offline_opt",
    };
    return names;
}

constexpr size_t kInteractiveId = 0;

/**
 * Load wall of an offline-opt page cell below the max OPP: just past
 * the deadline, when that is finite and tighter than maxLoadSec. Such
 * a cell can win only by finishing within the deadline, which it then
 * does inside the cut window on the same ticks; one still loading at
 * the cut can never be picked, so running it on is wasted work.
 */
std::optional<double>
offlineCutWallSec(const ExperimentConfig &config)
{
    const double wall = config.deadlineSec + 2.0 * config.dtSec;
    if (!std::isfinite(wall) || !(wall < config.maxLoadSec))
        return std::nullopt;
    return wall;
}

} // namespace

size_t
governorCount()
{
    return governorRegistry().size();
}

size_t
governorIndex(const std::string &name)
{
    const auto &names = governorRegistry();
    for (size_t i = 0; i < names.size(); ++i)
        if (names[i] == name)
            return i;
    fatal("governorIndex: unknown governor '%s'", name.c_str());
}

const std::string &
governorName(size_t index)
{
    const auto &names = governorRegistry();
    if (index >= names.size())
        fatal("governorName: id %zu out of range (%zu governors)",
              index, names.size());
    return names[index];
}

void
ComparisonRecord::setMeasurement(size_t index, RunMeasurement m)
{
    if (index >= governorCount())
        fatal("ComparisonRecord: governor id %zu out of range", index);
    if (slots_.size() <= index)
        slots_.resize(index + 1);
    slots_[index] = std::move(m);
    presentMask_ |= 1u << index;
}

void
ComparisonRecord::setMeasurement(const std::string &governor,
                                 RunMeasurement m)
{
    setMeasurement(governorIndex(governor), std::move(m));
}

bool
ComparisonRecord::hasMeasurement(size_t index) const
{
    return index < 32 && (presentMask_ & (1u << index));
}

const RunMeasurement &
ComparisonRecord::measurement(size_t index) const
{
    if (!hasMeasurement(index))
        panic("ComparisonRecord: no measurement for governor '%s'",
              governorName(index).c_str());
    return slots_[index];
}

const RunMeasurement &
ComparisonRecord::measurement(const std::string &governor) const
{
    return measurement(governorIndex(governor));
}

double
ComparisonRecord::normalizedPpw(size_t index) const
{
    const RunMeasurement &base = measurement(kInteractiveId);
    const RunMeasurement &m = measurement(index);
    if (base.ppw <= 0.0)
        panic("ComparisonRecord: zero baseline PPW for %s",
              workload.label().c_str());
    return m.ppw / base.ppw;
}

double
ComparisonRecord::normalizedPpw(const std::string &governor) const
{
    return normalizedPpw(governorIndex(governor));
}

ComparisonHarness::ComparisonHarness(
    const ExperimentConfig &config,
    std::shared_ptr<const ModelBundle> models, unsigned jobs)
    : runner_(config), models_(std::move(models))
{
    tiers_.jobs = jobs;
}

const std::vector<std::string> &
ComparisonHarness::paperGovernors()
{
    static const std::vector<std::string> names = {
        "interactive", "performance", "DL", "EE", "DORA",
    };
    return names;
}

std::unique_ptr<Governor>
makeNamedGovernor(const std::string &governor,
                  const std::shared_ptr<const ModelBundle> &models)
{
    if (governor == "interactive")
        return std::make_unique<InteractiveGovernor>();
    if (governor == "performance")
        return std::make_unique<PerformanceGovernor>();
    if (governor == "powersave")
        return std::make_unique<PowersaveGovernor>();
    if (governor == "ondemand")
        return std::make_unique<OndemandGovernor>();
    if (governor == "DL")
        return std::make_unique<PredictiveGovernor>(makeDl(models));
    if (governor == "EE")
        return std::make_unique<PredictiveGovernor>(makeEe(models));
    if (governor == "DORA")
        return std::make_unique<PredictiveGovernor>(makeDora(models));
    if (governor == "DORA_no_lkg")
        return std::make_unique<PredictiveGovernor>(
            makeDoraNoLeakage(models));
    fatal("makeNamedGovernor: unknown governor '%s'", governor.c_str());
}

RunMeasurement
ComparisonHarness::runOne(const WorkloadSpec &workload,
                          const std::string &governor)
{
    const std::unique_ptr<Governor> g = makeNamedGovernor(governor, models_);
    return runner_.run(workload, *g);
}

RunCell
ComparisonHarness::makeCell(const WorkloadSpec &workload,
                            std::unique_ptr<Governor> governor,
                            std::optional<size_t> initial_freq) const
{
    // Each cell gets a private injector on the runner's schedule; an
    // injector resets at run start, so it replays the runner's
    // per-run fault stream exactly.
    const FaultInjector *injector = runner_.faultInjector();
    return makeRunCell(runner_.config(), workload.page, workload.kernel,
                       workload.label(), std::move(governor),
                       initial_freq,
                       injector ? &injector->schedule() : nullptr);
}

std::vector<RunMeasurement>
ComparisonHarness::runGrid(size_t n, const std::string &grid,
                           const CellExecutor::CellFn &make_cell) const
{
    // Journal identity: the measurement protocol, the fault schedule
    // and the grid (the executor adds the cell count and lane width).
    std::ostringstream identity;
    identity.precision(17);
    identity << "harness " << experimentConfigHash(runner_.config())
             << " " << grid;
    if (const FaultInjector *injector = runner_.faultInjector()) {
        const FaultSchedule &s = injector->schedule();
        identity << " fault " << s.seed << " " << s.sensorDropProb << " "
                 << s.sensorStuckProb << " " << s.sensorNoiseSd << " "
                 << s.sensorStuckDurationSec << " "
                 << s.sensorStalenessSec << " " << s.actuatorRejectProb
                 << " " << s.actuatorLatchProb << " "
                 << s.actuatorLatchDurationSec << " "
                 << s.thermalSpikeProb << " " << s.thermalSpikeDeltaC
                 << " " << s.thermalSpikeDurationSec;
    }
    CellCampaign campaign;
    campaign.name = "harness";
    campaign.hash = hashLabel(identity.str());
    campaign.queuedMetric = "harness.cells_queued";
    campaign.doneMetric = "harness.cells_done";
    return CellExecutor(tiers_).measure(n, make_cell, campaign);
}

std::vector<ComparisonRecord>
ComparisonHarness::runAll(const std::vector<WorkloadSpec> &workloads,
                          const std::vector<std::string> &governors)
{
    const auto &names = governors.empty() ? paperGovernors() : governors;
    std::ostringstream grid;
    grid << "runAll";
    for (const auto &w : workloads)
        grid << " " << w.label();
    for (const auto &g : names)
        grid << " " << g;
    std::vector<RunMeasurement> flat =
        runGrid(workloads.size() * names.size(), grid.str(),
                [&](size_t i) {
                    return makeCell(
                        workloads[i / names.size()],
                        makeNamedGovernor(names[i % names.size()],
                                          models_),
                        std::nullopt);
                });

    std::vector<ComparisonRecord> records;
    records.reserve(workloads.size());
    for (size_t w = 0; w < workloads.size(); ++w) {
        ComparisonRecord record;
        record.workload = workloads[w];
        for (size_t g = 0; g < names.size(); ++g)
            record.setMeasurement(names[g],
                                  std::move(flat[w * names.size() + g]));
        records.push_back(std::move(record));
    }
    return records;
}

RunMeasurement
ComparisonHarness::pickOfflineOpt(std::vector<RunMeasurement> sweep) const
{
    const FreqTable &table = runner_.freqTable();
    // Entry f must be OPP f. A short sweep would fall through to a
    // default-constructed RunMeasurement (governor "", PPW 0) that
    // silently pollutes downstream aggregates, and a long one would let
    // entries past the table compete; either is a caller bug.
    if (sweep.size() != table.size())
        fatal("pickOfflineOpt: sweep covers %zu OPPs but the table has "
              "%zu; the offline-optimal search needs one run per OPP",
              sweep.size(), table.size());
    RunMeasurement best;
    RunMeasurement fastest;
    bool have_meeting = false;
    for (size_t f = 0; f < sweep.size(); ++f) {
        RunMeasurement &m = sweep[f];
        m.governor = "offline_opt";
        if (f == table.maxIndex())
            fastest = m;
        if (m.meetsDeadline && (!have_meeting || m.ppw > best.ppw)) {
            best = m;
            have_meeting = true;
        }
    }
    // Like DORA, fall back to flat-out when no OPP meets the deadline.
    return have_meeting ? best : fastest;
}

RunMeasurement
ComparisonHarness::offlineOpt(const WorkloadSpec &workload)
{
    return offlineOptMany({workload}).front();
}

std::vector<RunMeasurement>
ComparisonHarness::offlineOptMany(
    const std::vector<WorkloadSpec> &workloads)
{
    // Each cell mirrors runAtFrequency(): a FixedGovernor pinned at
    // the OPP, which is also the initial frequency. Page cells below
    // the max OPP run on a load wall cut just past the deadline
    // (offlineCutWallSec); the max-OPP fallback keeps the full wall.
    const size_t freqs = runner_.freqTable().size();
    const std::optional<double> cut_wall =
        offlineCutWallSec(runner_.config());
    const auto cut = [&](size_t i) {
        return cut_wall && workloads[i / freqs].page != nullptr &&
            i % freqs != runner_.freqTable().maxIndex();
    };
    // The rule is part of the grid identity: a journal of uncut
    // losers is refused, never mixed in.
    std::ostringstream grid;
    grid << "offlineOptMany cut=deadline+2dt";
    for (const auto &w : workloads)
        grid << " " << w.label();
    std::vector<RunMeasurement> flat =
        runGrid(workloads.size() * freqs, grid.str(), [&](size_t i) {
            const size_t f = i % freqs;
            RunCell cell = makeCell(workloads[i / freqs],
                                    std::make_unique<FixedGovernor>(f), f);
            if (cut(i))
                cell.config.maxLoadSec = *cut_wall;
            return cell;
        });

    uint64_t cells_cut = 0;
    for (size_t i = 0; i < flat.size(); ++i)
        if (cut(i) && !flat[i].pageFinished)
            ++cells_cut;
    MetricsRegistry::global()
        .counter("harness.offline_cells_cut")
        .add(cells_cut);

    std::vector<RunMeasurement> results;
    results.reserve(workloads.size());
    for (size_t w = 0; w < workloads.size(); ++w) {
        std::vector<RunMeasurement> sweep(
            std::make_move_iterator(flat.begin() + w * freqs),
            std::make_move_iterator(flat.begin() + (w + 1) * freqs));
        results.push_back(pickOfflineOpt(std::move(sweep)));
    }
    return results;
}

namespace
{

/** True when @p record's @p id run or its baseline is censored. */
bool
recordCensored(const ComparisonRecord &record, size_t id)
{
    return record.measurement(id).censored ||
        record.measurement(kInteractiveId).censored;
}

} // namespace

double
meanNormalizedPpw(const std::vector<ComparisonRecord> &records,
                  const std::string &governor)
{
    const size_t id = governorIndex(governor);
    double sum = 0.0;
    size_t counted = 0;
    for (const auto &r : records) {
        // A censored run's PPW of 0 is a flag, not an observation:
        // averaging it would reward governors that fail pages outright
        // over governors that finish them late.
        if (recordCensored(r, id))
            continue;
        sum += r.normalizedPpw(id);
        ++counted;
    }
    return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

size_t
censoredCount(const std::vector<ComparisonRecord> &records,
              const std::string &governor)
{
    const size_t id = governorIndex(governor);
    size_t censored = 0;
    for (const auto &r : records)
        if (recordCensored(r, id))
            ++censored;
    return censored;
}

double
deadlineMeetRate(const std::vector<ComparisonRecord> &records,
                 const std::string &governor)
{
    if (records.empty())
        return 0.0;
    const size_t id = governorIndex(governor);
    double met = 0.0;
    for (const auto &r : records)
        if (r.measurement(id).meetsDeadline)
            met += 1.0;
    return met / static_cast<double>(records.size());
}

} // namespace dora
