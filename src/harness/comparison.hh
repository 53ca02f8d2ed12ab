/**
 * @file
 * Governor-comparison harness behind Figures 7, 8, and 9: runs a set of
 * workloads under every governor the paper compares (interactive,
 * performance, DL, EE, DORA) and normalizes energy efficiency to the
 * interactive baseline.
 *
 * Every cell of a comparison (workload x governor) is an independent
 * simulation on a freshly constructed device; the harness hands the
 * grid to the cell executor (sim/cell_executor.hh), whose thread and
 * process tiers are both bit-identical to a plain loop of runOne()
 * calls.
 */

#ifndef DORA_HARNESS_COMPARISON_HH
#define DORA_HARNESS_COMPARISON_HH

#include <memory>
#include <string>
#include <vector>

#include "dora/model_bundle.hh"
#include "dora/predictive_governor.hh"
#include "runner/experiment.hh"
#include "sim/cell_executor.hh"

namespace dora
{

/**
 * Fresh governor instance by registry name; fatal() on an unknown
 * name. The predictive governors (DL, EE, DORA, DORA_no_lkg) require
 * a trained @p models bundle; the kernel governors ignore it. Shared
 * by the comparison harness and the fleet campaign engine.
 */
std::unique_ptr<Governor>
makeNamedGovernor(const std::string &name,
                  const std::shared_ptr<const ModelBundle> &models);

/** True for the predictive governors, which run on a trained bundle. */
bool needsModels(const std::string &name);

/**
 * fatal() unless every name in @p names is one makeNamedGovernor()
 * knows and none is listed twice; @p caller prefixes the repeated-name
 * diagnostic. Campaigns check their list before any cell runs: a
 * repeated name would ride its twin and duplicate its results, and an
 * unknown one would otherwise die on a pool thread or in a worker.
 */
void checkGovernorList(const char *caller,
                       const std::vector<std::string> &names,
                       const std::shared_ptr<const ModelBundle> &models);

/**
 * Results of one workload under every compared governor, keyed by
 * governor name. A name outside the harness's governor registry
 * (makeNamedGovernor's names plus "offline_opt") is fatal().
 */
struct ComparisonRecord
{
    WorkloadSpec workload;

    /** Store @p m as the measurement of @p governor. */
    void setMeasurement(const std::string &governor, RunMeasurement m);

    /** Measurement of @p governor; panic() if none was stored. */
    const RunMeasurement &measurement(const std::string &governor) const;

    /** PPW of @p governor normalized to interactive. */
    double normalizedPpw(const std::string &governor) const;

  private:
    /**
     * Flat per-governor storage, indexed by a small dense id private
     * to comparison.cc. Grown lazily to the highest stored id;
     * presence is a bitmask.
     */
    std::vector<RunMeasurement> slots_;
    uint32_t presentMask_ = 0;
};

/**
 * Owns the governor set and runs comparisons.
 */
class ComparisonHarness
{
  public:
    /**
     * @param config  per-run configuration (deadline etc.)
     * @param models  trained bundle for the predictive governors
     * @param jobs    threads for runAll()/offlineOpt() fan-outs
     *                (0 = defaultJobCount())
     */
    ComparisonHarness(const ExperimentConfig &config,
                      std::shared_ptr<const ModelBundle> models,
                      unsigned jobs = 0);

    /**
     * Route fan-outs through the crash-resilient process tier
     * (exec/proc): @p workers worker subprocesses per campaign.
     * 0 (the default) keeps everything in-process. Results under any
     * worker count are bit-identical to workers=0: cells are keyed by
     * grid index and every cell constructs its own device.
     */
    void setWorkers(unsigned workers) { tiers_.workers = workers; }

    /**
     * Enable journal resume for process-tier campaigns: completed
     * cells are journaled to `<stem>.<campaign-hash>.jrn` and a rerun
     * resumes from the journal instead of recomputing them. The hash
     * covers the experiment config, fault schedule, and campaign
     * shape, so a stale journal from a different sweep is refused.
     * Empty (the default) disables journaling. No effect at workers=0.
     */
    void setProcJournalStem(std::string stem)
    {
        tiers_.journalStem = std::move(stem);
    }

    /**
     * Inert: the only accepted value is 1; any other is fatal(). Its
     * only caller is benchmark/rounds.cc, and it goes with that line.
     */
    void setLanes(unsigned lanes);

    /**
     * Run @p workloads under every governor in the comparison set.
     * A workload's governors with the same decision interval share
     * one simulation per distinct OPP trajectory (DESIGN.md §5m).
     * @param governors distinct names from {"interactive",
     *        "performance", "DL", "EE", "DORA", "DORA_no_lkg",
     *        "powersave", "ondemand"}; empty = the paper's five. A
     *        repeated or unknown name is fatal() before any cell runs.
     */
    std::vector<ComparisonRecord>
    runAll(const std::vector<WorkloadSpec> &workloads,
           const std::vector<std::string> &governors = {});

    /** Run one workload under one named governor. */
    RunMeasurement runOne(const WorkloadSpec &workload,
                          const std::string &governor);

    /**
     * Offline-optimal search: the single pinned OPP maximizing PPW
     * subject to the deadline (the paper's Offline_opt reference).
     * @return the best measurement (pinned-frequency run)
     */
    RunMeasurement offlineOpt(const WorkloadSpec &workload);

    /**
     * offlineOpt() for a batch of workloads. The whole workload x
     * frequency grid is fanned out jointly, so parallelism is not
     * limited by the OPP count of a single sweep. Result i corresponds
     * to workloads[i].
     *
     * A page cell below the max OPP can only win by meeting the
     * deadline, so its load wall is cut to deadlineSec + 2 dtSec when
     * the deadline is finite and that is tighter than maxLoadSec. A
     * winner finishes inside the cut on the same ticks, so every
     * result equals the pickOfflineOpt() of a full runAtFrequency()
     * sweep; only discarded runs end early. Cells left unfinished at
     * the cut are counted in `harness.offline_cells_cut`.
     *
     * A cut cell's OPP is pinned, with or without fault injection, so
     * its page cannot load faster than RunContext::loadFloorSec() at
     * that OPP. A cell whose floor passes the cut wall by more than
     * 2 dtSec (RunContext::provablyLate()) is never simulated: its
     * slot holds a censored, unfinished placeholder, it leaves no run
     * trace, and it is counted in `harness.offline_cells_skipped` as
     * well. The other cut cells run with
     * RunContext::Params::discardUnlessFinished and end at the first
     * quantum where elapsed time plus the remaining floor passes that
     * line. Both touch only runs pickOfflineOpt() discards (DESIGN.md
     * §5l).
     */
    std::vector<RunMeasurement>
    offlineOptMany(const std::vector<WorkloadSpec> &workloads);

    /** The underlying runner (for config access). */
    ExperimentRunner &runner() { return runner_; }

    /** Default governor list used when runAll() gets an empty set. */
    static const std::vector<std::string> &paperGovernors();

    /**
     * Select the offline-opt winner from an ascending-OPP sweep: the
     * highest-PPW run that meets the deadline, else the max-OPP run.
     * Entry f must be OPP f, so the sweep must have exactly one entry
     * per OPP (fatal() otherwise — a short sweep once yielded a silent
     * default-constructed result, a long one let extra entries
     * compete). Public so tests and custom sweeps can reuse the
     * selection rule.
     */
    RunMeasurement pickOfflineOpt(std::vector<RunMeasurement> sweep) const;

  private:
    /** Cell of @p workload under @p governor, on the runner's config. */
    RunCell makeCell(const WorkloadSpec &workload,
                     std::unique_ptr<Governor> governor,
                     std::optional<size_t> initial_freq) const;

    /**
     * Run the grid [0, n) of cells built by @p make_cell through the
     * cell executor. @p grid names the grid (workload labels, governor
     * names) for the process-tier journal identity.
     */
    std::vector<RunMeasurement>
    runGrid(size_t n, const std::string &grid,
            const CellExecutor::CellFn &make_cell) const;

    ExperimentRunner runner_;
    std::shared_ptr<const ModelBundle> models_;
    CellTiers tiers_;
};

/**
 * Mean of normalized PPW for @p governor over @p records. Censored
 * records — the governor's run or its interactive baseline never
 * finished the page — are excluded from the mean (their PPW of 0 is a
 * flag, not a score); report them via censoredCount() alongside.
 * Returns 0 when every record is censored.
 */
double meanNormalizedPpw(const std::vector<ComparisonRecord> &records,
                         const std::string &governor);

/**
 * Fraction of records whose @p governor run met the deadline. Censored
 * runs count as misses (the page provably did not finish in time), so
 * the denominator is all records.
 */
double deadlineMeetRate(const std::vector<ComparisonRecord> &records,
                        const std::string &governor);

/**
 * Number of records excluded from meanNormalizedPpw() for @p governor:
 * the governor's own run or its interactive baseline is censored.
 */
size_t censoredCount(const std::vector<ComparisonRecord> &records,
                     const std::string &governor);

} // namespace dora

#endif // DORA_HARNESS_COMPARISON_HH
