#include "harness/comparison.hh"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "obs/metrics.hh"
#include "runner/run_context.hh"

namespace dora
{

namespace
{

/**
 * Canonical governor registry. Order is the dense id that keys
 * ComparisonRecord's storage.
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

/** Dense id of @p name; fatal() on an unknown governor. */
size_t
governorId(const std::string &name)
{
    const auto &names = governorRegistry();
    for (size_t i = 0; i < names.size(); ++i)
        if (names[i] == name)
            return i;
    fatal("ComparisonRecord: unknown governor '%s'", name.c_str());
}

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

void
ComparisonRecord::setMeasurement(const std::string &governor,
                                 RunMeasurement m)
{
    const size_t id = governorId(governor);
    if (slots_.size() <= id)
        slots_.resize(id + 1);
    slots_[id] = std::move(m);
    presentMask_ |= 1u << id;
}

const RunMeasurement &
ComparisonRecord::measurement(const std::string &governor) const
{
    const size_t id = governorId(governor);
    if (!(presentMask_ & (1u << id)))
        panic("ComparisonRecord: no measurement for governor '%s'",
              governor.c_str());
    return slots_[id];
}

double
ComparisonRecord::normalizedPpw(const std::string &governor) const
{
    const RunMeasurement &base = measurement("interactive");
    const RunMeasurement &m = measurement(governor);
    if (base.ppw <= 0.0)
        panic("ComparisonRecord: zero baseline PPW for %s",
              workload.label().c_str());
    return m.ppw / base.ppw;
}

ComparisonHarness::ComparisonHarness(
    const ExperimentConfig &config,
    std::shared_ptr<const ModelBundle> models, unsigned jobs)
    : runner_(config), models_(std::move(models)), jobs_(jobs)
{
}

void
ComparisonHarness::setLanes(unsigned lanes)
{
    if (lanes != 1)
        fatal("ComparisonHarness::setLanes: lanes must be 1, not %u",
              lanes);
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

bool
needsModels(const std::string &name)
{
    return name == "DL" || name == "EE" || name == "DORA" ||
        name == "DORA_no_lkg";
}

void
checkGovernorList(const char *caller, const std::vector<std::string> &names,
                  const std::shared_ptr<const ModelBundle> &models)
{
    for (size_t g = 0; g < names.size(); ++g) {
        if (std::find(names.begin(), names.begin() + g, names[g]) !=
            names.begin() + g)
            fatal("%s: governor '%s' is listed twice", caller,
                  names[g].c_str());
        makeNamedGovernor(names[g], models);
    }
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
ComparisonHarness::runGrid(size_t n,
                           const CellExecutor::CellFn &make_cell) const
{
    CellCampaign campaign;
    campaign.queuedMetric = "harness.cells_queued";
    campaign.doneMetric = "harness.cells_done";
    return CellExecutor(jobs_).measure(n, make_cell, campaign);
}

std::vector<ComparisonRecord>
ComparisonHarness::runAll(const std::vector<WorkloadSpec> &workloads,
                          const std::vector<std::string> &governors)
{
    const auto &names = governors.empty() ? paperGovernors() : governors;
    // A repeated name would also overwrite its twin's record slot.
    checkGovernorList("runAll", names, models_);
    std::vector<RunMeasurement> flat =
        runGrid(workloads.size() * names.size(), [&](size_t i) {
            return makeCell(workloads[i / names.size()],
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
    const FreqTable &table = runner_.freqTable();
    const size_t freqs = table.size();
    const std::optional<double> cut_wall =
        offlineCutWallSec(runner_.config());
    const auto cut = [&](size_t i) {
        return cut_wall && workloads[i / freqs].page != nullptr &&
            i % freqs != table.maxIndex();
    };
    // A cut cell's OPP is pinned: its FixedGovernor asks for the
    // initial OPP at every decision, a request for the current OPP is
    // never rejected, and fault injection moves only sensor readings
    // and the ambient temperature. So its page cannot load faster than
    // its load-time floor at that OPP (DESIGN.md §5l). A cell whose
    // floor already passes the cut wall is never simulated; the others
    // close their window as soon as it does.
    ExperimentConfig cut_config = runner_.config();
    if (cut_wall)
        cut_config.maxLoadSec = *cut_wall;
    const auto provably_late = [&](size_t i) {
        return RunContext::provablyLate(
            cut_config, 0.0,
            RunContext::loadFloorSec(*workloads[i / freqs].page,
                                     table.opp(i % freqs).coreMhz));
    };
    std::vector<RunMeasurement> flat(workloads.size() * freqs);
    std::vector<size_t> simulated;
    uint64_t cells_skipped = 0;
    for (size_t i = 0; i < flat.size(); ++i) {
        if (!(cut(i) && provably_late(i))) {
            simulated.push_back(i);
            continue;
        }
        // Unfinished and censored, as its run would end: a loser that
        // pickOfflineOpt() discards.
        RunMeasurement &m = flat[i];
        m.workload = workloads[i / freqs].label();
        m.censored = true;
        ++cells_skipped;
    }

    std::vector<RunMeasurement> measured =
        runGrid(simulated.size(), [&](size_t k) {
            const size_t i = simulated[k];
            const size_t f = i % freqs;
            RunCell cell = makeCell(workloads[i / freqs],
                                    std::make_unique<FixedGovernor>(f), f);
            if (cut(i)) {
                cell.config = cut_config;
                cell.params.discardUnlessFinished = true;
            }
            return cell;
        });
    for (size_t k = 0; k < simulated.size(); ++k)
        flat[simulated[k]] = std::move(measured[k]);

    uint64_t cells_cut = 0;
    for (size_t i = 0; i < flat.size(); ++i)
        if (cut(i) && !flat[i].pageFinished)
            ++cells_cut;
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.counter("harness.offline_cells_cut").add(cells_cut);
    reg.counter("harness.offline_cells_skipped").add(cells_skipped);

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

/** True when @p record's @p governor run or its baseline is censored. */
bool
recordCensored(const ComparisonRecord &record, const std::string &governor)
{
    return record.measurement(governor).censored ||
        record.measurement("interactive").censored;
}

} // namespace

double
meanNormalizedPpw(const std::vector<ComparisonRecord> &records,
                  const std::string &governor)
{
    double sum = 0.0;
    size_t counted = 0;
    for (const auto &r : records) {
        // A censored run's PPW of 0 is a flag, not an observation:
        // averaging it would reward governors that fail pages outright
        // over governors that finish them late.
        if (recordCensored(r, governor))
            continue;
        sum += r.normalizedPpw(governor);
        ++counted;
    }
    return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

size_t
censoredCount(const std::vector<ComparisonRecord> &records,
              const std::string &governor)
{
    size_t censored = 0;
    for (const auto &r : records)
        if (recordCensored(r, governor))
            ++censored;
    return censored;
}

double
deadlineMeetRate(const std::vector<ComparisonRecord> &records,
                 const std::string &governor)
{
    if (records.empty())
        return 0.0;
    double met = 0.0;
    for (const auto &r : records)
        if (r.measurement(governor).meetsDeadline)
            met += 1.0;
    return met / static_cast<double>(records.size());
}

} // namespace dora
