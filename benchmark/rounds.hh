/**
 * @file
 * The benchmark's workloads, cut into rounds.
 *
 * A run executes a fixed number of rounds. Every round is a
 * deterministic batch of simulation cells derived from (workload,
 * seed, round index) only, so a round can be replayed on the traced
 * path and checked bit for bit. Rounds of one run never repeat a cell:
 * the grid workloads walk a seeded permutation of the paper's 54
 * page x co-runner combinations, and each further pass over the grid
 * raises the ambient temperature, so no two rounds share an input.
 * A pass (cycle) covers every page, so the cost of a whole-cycle run
 * barely depends on the seed.
 */

#ifndef DORA_BENCHMARK_ROUNDS_HH
#define DORA_BENCHMARK_ROUNDS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dora/model_bundle.hh"
#include "fleet/campaign.hh"
#include "harness/comparison.hh"
#include "runner/experiment.hh"
#include "runner/workload.hh"

namespace bench
{

enum class Kind
{
    PaperGrid,   //!< runAll over paper governors + offline-opt sweeps
    FleetDora,   //!< fleet campaign with DORA, ondemand, interactive
    ExactSweep,  //!< exact-ticks offline-opt sweeps, no model
};

/** Parse a workload name; false when unknown. */
bool parseKind(const std::string &name, Kind *kind);

const char *kindName(Kind kind);

/** True when the workload's governors need a trained bundle. */
bool needsBundle(Kind kind);

/** Shape of a round; the defaults are the benchmark's. */
struct RoundShape
{
    size_t gridPerClass = 2;     //!< paper-grid runAll pages per class
    size_t fleetDevices = 16;    //!< fleet-dora devices per round
    /** 4 chunks a round, as the default 32 makes of 128 devices. */
    unsigned fleetChunkDevices = 4;
    double faultIncidence = 0.05;
};

/** One round's inputs. */
struct Round
{
    Kind kind = Kind::PaperGrid;
    dora::ExperimentConfig config;
    /** paper-grid: workloads run under every paper governor. */
    std::vector<dora::WorkloadSpec> grid;
    /** paper-grid and exact-sweep: workloads swept over every OPP. */
    std::vector<dora::WorkloadSpec> offline;
    /** fleet-dora: the round's campaign (models filled by the caller). */
    dora::FleetCampaignConfig fleet;
};

/**
 * Rounds in one cycle: every page once per memory class (paper-grid),
 * every page once (exact-sweep), 96 devices (fleet-dora).
 */
size_t roundsPerCycle(Kind kind, const RoundShape &shape = {});

/** Build round @p index of workload @p kind for @p seed. */
Round planRound(Kind kind, uint64_t seed, size_t index,
                const RoundShape &shape = {});

/** Context shared by every round of one run. */
struct RunEnv
{
    unsigned jobs = 2;
    std::shared_ptr<const dora::ModelBundle> models;
};

/** What a round produced, on either path. */
struct RoundResult
{
    uint64_t digest = 0;
    size_t cells = 0;
    size_t failed = 0;  //!< cells whose measurement is not sane
    /** paper-grid: the runAll records (for the accuracy figure). */
    std::vector<dora::ComparisonRecord> records;
};

/**
 * Run @p round through the shipped public entry points
 * (ComparisonHarness::runAll/offlineOptMany, FleetEngine::run).
 */
RoundResult runRound(const Round &round, const RunEnv &env);

/** Order-sensitive digest chain step (the fleet aggregate's idiom). */
uint64_t chainDigest(uint64_t chain, uint64_t link);

/** Seed of every digest chain the benchmark builds. */
uint64_t digestSeed(Kind kind);

/**
 * Plausibility of one measurement: finite, positive where physics
 * demands it, and self-consistent (censoring, deadline flag).
 */
bool measurementSane(const dora::RunMeasurement &m,
                     const dora::ExperimentConfig &config);

/** How much of the training campaign a set-up runs. */
enum class BundleSize
{
    Tiny,     //!< 6 workloads x 4 OPPs: the self-test
    Reduced,  //!< 18 workloads x 7 OPPs, 3 ambients: the benchmark
    Full,     //!< the default TrainerConfig every user trains
};

/** Train a model bundle from cold, never touching the model cache. */
dora::ModelBundle trainBundle(unsigned jobs, BundleSize size);

} // namespace bench

#endif // DORA_BENCHMARK_ROUNDS_HH
