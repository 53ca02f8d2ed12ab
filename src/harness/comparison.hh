/**
 * @file
 * Governor-comparison harness behind Figures 7, 8, and 9: runs a set of
 * workloads under every governor the paper compares (interactive,
 * performance, DL, EE, DORA) and normalizes energy efficiency to the
 * interactive baseline.
 *
 * Every cell of a comparison (workload x governor) is an independent
 * simulation on a freshly constructed device; the harness hands the
 * grid to the cell executor (sim/cell_executor.hh), whose thread,
 * process and lane tiers are all bit-identical to a plain loop of
 * runOne() calls.
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
 * Registry of governor names the harness can run. The index of a name
 * is its storage key inside ComparisonRecord (a small dense id, stable
 * for the life of the process).
 */
size_t governorCount();

/** Dense id of @p name; fatal() on an unknown governor. */
size_t governorIndex(const std::string &name);

/** Name of the governor with dense id @p index; fatal() out of range. */
const std::string &governorName(size_t index);

/**
 * Fresh governor instance by registry name; fatal() on an unknown
 * name. The predictive governors (DL, EE, DORA, DORA_no_lkg) require
 * a trained @p models bundle; the kernel governors ignore it. Shared
 * by the comparison harness and the fleet campaign engine.
 */
std::unique_ptr<Governor>
makeNamedGovernor(const std::string &name,
                  const std::shared_ptr<const ModelBundle> &models);

/** Results of one workload under every compared governor. */
struct ComparisonRecord
{
    WorkloadSpec workload;

    /** Store @p m as the measurement of governor @p index. */
    void setMeasurement(size_t index, RunMeasurement m);

    /** String-keyed shim for setMeasurement(governorIndex(name), m). */
    void setMeasurement(const std::string &governor, RunMeasurement m);

    /** Whether governor @p index has a stored measurement. */
    bool hasMeasurement(size_t index) const;

    /** Measurement of governor @p index; fatal() if missing. */
    const RunMeasurement &measurement(size_t index) const;

    /** String-keyed shim for measurement(governorIndex(governor)). */
    const RunMeasurement &measurement(const std::string &governor) const;

    /** PPW of governor @p index normalized to interactive. */
    double normalizedPpw(size_t index) const;

    /** String-keyed shim for normalizedPpw(governorIndex(governor)). */
    double normalizedPpw(const std::string &governor) const;

  private:
    /**
     * Flat per-governor storage, indexed by the dense registry id.
     * Grown lazily to the highest stored id; presence is a bitmask so
     * lookups on the bench hot loop are two array reads, not a
     * string-keyed tree walk.
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
     * Enable checkpoint/resume for process-tier campaigns: completed
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
     * Lane batching (sim/lane_batch.hh): advance fan-out cells
     * @p lanes at a time, interleaved on one thread, so independent
     * memory-walk miss chains overlap. Composes with the thread tier
     * (each pool job runs a batch) and the process tier (each worker
     * unit is a batch); results are bit-identical at every lane count.
     * 0, the default, is $DORA_LANES (see common/lanes.hh).
     */
    void setLanes(unsigned lanes) { tiers_.lanes = lanes; }

    /**
     * Run @p workloads under every governor in the comparison set.
     * @param governors subset of {"interactive", "performance", "DL",
     *        "EE", "DORA", "DORA_no_lkg", "powersave"}; empty = the
     *        paper's five.
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
