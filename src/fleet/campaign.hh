/**
 * @file
 * FleetEngine: expand a FleetSpec population into deterministic
 * per-device work units, fan them out through every execution tier,
 * and aggregate population statistics — streamingly (DESIGN.md §5i).
 *
 * Cell grid: cell = device * |governors| + g, where g is the
 * governor's position in the list (device-major). Every cell is an
 * independent simulation of one sampled device under one governor,
 * keyed by its grid index. The engine runs its cells through the cell
 * executor (sim/cell_executor.hh), so results are byte-identical at
 * any combination of
 *
 *   --jobs    thread tier (chunks on the pool)
 *   --workers process tier (exec/proc supervisor; crash recovery and
 *             a checksummed resume journal bound to the campaign
 *             hash)
 *
 * and identical again after a mid-campaign kill + resume.
 *
 * Aggregation is streaming: the campaign's cells are cut into
 * fixed-size chunks (whole devices, chunkDevices per chunk), each
 * chunk reduces into one fixed-memory FleetShardAggregate
 * (fleet/aggregate.hh), and chunk aggregates fold left-to-right in
 * chunk-index order as the executor hands them over — so memory holds
 * only chunks that finished out of order, on every tier. The process
 * tier ships and journals one aggregate per chunk instead of
 * per-device measurements (about 3 KB for 32 devices under two
 * governors), and a campaign resumed after SIGKILL replays every
 * journaled chunk through the same in-order fold: the journal is its
 * only resume artifact.
 *
 * The campaign hash covers the spec text, the base ExperimentConfig
 * protocol hash, the governor list, and the chunk width, so a stale
 * journal from any other campaign is refused. The tier
 * widths are deliberately NOT in the hash: every cell's measurement is
 * the same at any (jobs, workers), so a journal written at one worker
 * count resumes correctly at any other.
 */

#ifndef DORA_FLEET_CAMPAIGN_HH
#define DORA_FLEET_CAMPAIGN_HH

#include <memory>
#include <string>
#include <vector>

#include "dora/model_bundle.hh"
#include "fleet/aggregate.hh"
#include "fleet/fleet_spec.hh"
#include "runner/experiment.hh"
#include "sim/cell_executor.hh"
#include "stats/quantile_sketch.hh"

namespace dora
{

/** Everything that identifies and shapes one fleet campaign. */
struct FleetCampaignConfig
{
    FleetSpec spec;

    /**
     * Governor registry names to roll out (see makeNamedGovernor).
     * The predictive governors need @ref models; the kernel governors
     * run model-free.
     */
    std::vector<std::string> governors = {"ondemand", "performance"};

    /**
     * Campaign-wide measurement protocol. Per-device heterogeneity
     * (freqScale/voltageScale/thermalResistanceScale/ambientC) is
     * overwritten from each DeviceSpec; everything else — deadline,
     * tick, SoC geometry — is shared.
     */
    ExperimentConfig base;

    /** Trained bundle for predictive governors (may be null). */
    std::shared_ptr<const ModelBundle> models;

    /** Tier widths; jobs = 0 means defaultJobCount(). */
    unsigned jobs = 1;    //!< thread tier width (ignored when workers > 0)
    unsigned workers = 0; //!< process tier width (0 = in-process)

    /**
     * Inert: the only accepted value is 1, and FleetEngine fatal()s on
     * any other. Its only caller is benchmark/rounds.cc, and it goes
     * with that line.
     */
    unsigned lanes = 1;

    /**
     * Devices per aggregation chunk — the unit of the thread and
     * process tiers and of the resume journal. Part of the campaign
     * hash (it defines the journal's unit space).
     */
    unsigned chunkDevices = 32;

    /**
     * Resume stem; completed chunks are journaled to
     * `<stem>.<campaign-hash>.jrn`, and a rerun replays them instead
     * of recomputing. Empty disables journaling. Process tier only.
     */
    std::string journalStem;
};

/**
 * Identity of a campaign's results: spec text, measurement protocol,
 * governor list, and chunk width (the process-tier unit is a chunk,
 * so the journal's unit space depends on it). The tier widths are
 * excluded on purpose — measurements are the same on every tier.
 */
uint64_t fleetCampaignHash(const FleetCampaignConfig &config);

/** Population statistics of one governor across the whole fleet. */
struct FleetGovernorStats
{
    std::string governor;
    size_t devices = 0;     //!< population size (sketch + censored)
    size_t censored = 0;    //!< loads that provably never finished
    size_t deadlineMet = 0; //!< loads inside the deadline

    /** Deadline-meet rate over ALL devices (censored = miss). */
    double meetRate = 0.0;

    /**
     * Uncensored-only distributions as mergeable fixed-memory
     * sketches (exact below QuantileSketch::kExactCap samples).
     * Query any quantile via QuantileSketch::quantile().
     */
    QuantileSketch ppw;
    QuantileSketch loadTime;

    /** Tail summaries of the sketches above (0 if all censored). */
    double meanPpw = 0.0;
    double p50Ppw = 0.0, p95Ppw = 0.0, p99Ppw = 0.0;
    double p50LoadSec = 0.0, p95LoadSec = 0.0, p99LoadSec = 0.0;
};

/** Per-cohort breakdown (vectors index-align with the governors). */
struct FleetCohortStats
{
    std::string cohort;
    size_t devices = 0;
    std::vector<double> meanPpw;
    std::vector<double> meetRate;
    std::vector<size_t> censored;
};

/** Aggregated result of one campaign. */
struct FleetReport
{
    size_t devices = 0;
    std::vector<FleetGovernorStats> byGovernor;
    /** Non-empty cohorts only, sorted by cohort key. */
    std::vector<FleetCohortStats> cohorts;
    /**
     * Order-sensitive FNV chain over the chunk digests (each chunk's
     * digest chains its cells' measurement digests): two campaigns
     * produced byte-identical populations iff the digests match. The
     * determinism/resume self-checks compare this plus
     * fleetReportText().
     */
    uint64_t populationDigest = 0;
};

/**
 * Canonical bit-exact rendering of a report (hex-float doubles), for
 * the byte-identity checks and machine consumption.
 */
std::string fleetReportText(const FleetReport &report);

/**
 * Runs fleet campaigns. Stateless between calls: run() and
 * replayDevice() derive everything from the config, which is what
 * makes any device replayable after the fact.
 */
class FleetEngine
{
  public:
    /**
     * fatal() on an invalid spec or an empty, repeated or unknown
     * governor, before any cell runs.
     */
    explicit FleetEngine(FleetCampaignConfig config);

    /** Run the whole campaign and aggregate. */
    FleetReport run();

    /**
     * Re-run one (device, governor) cell alone. Bit-identical to the
     * cell's in-campaign measurement at any tier combination, ridden
     * or not, which the fleet determinism suite enforces.
     */
    RunMeasurement replayDevice(size_t device_index,
                                const std::string &governor) const;

    const FleetCampaignConfig &config() const { return config_; }

    /** Cells per campaign and chunks per campaign (last may be short). */
    size_t cellCount() const;
    size_t chunkCount() const;

  private:
    /** Cell @p cell_index: @p sampled (its device) under its governor. */
    RunCell makeCell(size_t cell_index, const DeviceSpec &sampled) const;
    /** One chunk's cells, reduced to the chunk aggregate. */
    FleetShardAggregate runChunk(size_t chunk_index) const;
    FleetReport buildReport(const FleetShardAggregate &campaign) const;

    FleetCampaignConfig config_;
    CellExecutor executor_;
};

} // namespace dora

#endif // DORA_FLEET_CAMPAIGN_HH
