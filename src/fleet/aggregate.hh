/**
 * @file
 * Streaming fleet aggregation (DESIGN.md §5i).
 *
 * A campaign's cell grid is cut into fixed-size **chunks** — whole
 * devices, `chunkDevices` of them per chunk, independent of the
 * jobs/workers tier settings. Each chunk reduces its cells
 * into one FleetShardAggregate: fixed-memory quantile sketches,
 * meet/censored counters, Neumaier-compensated PPW sums, per-cohort
 * counters, and an order-sensitive digest chain over the chunk's
 * measurement digests. Workers ship this one aggregate per chunk
 * instead of per-device measurements, and every aggregation path —
 * serial, thread tier, process tier, journal resume — folds the
 * chunk aggregates **left-to-right in chunk-index order** (the
 * canonical fold), so the campaign-level aggregate is bit-identical
 * at any (jobs, workers) combination and across a SIGKILL +
 * resume.
 *
 * Determinism argument: a chunk holds at most a few hundred samples,
 * so its sketches stay in exact mode, where merge() is genuine
 * concatenation; folding exact shards into the (possibly compacted)
 * campaign prefix replays their samples in cell order, making the
 * campaign sketch state a pure function of the global cell order.
 * Counters and compensated sums are trivially order-fixed by the
 * canonical fold. The digest chain is sequential by construction.
 */

#ifndef DORA_FLEET_AGGREGATE_HH
#define DORA_FLEET_AGGREGATE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runner/experiment.hh"
#include "stats/neumaier.hh"
#include "stats/quantile_sketch.hh"

namespace dora
{

/**
 * Reduction of one chunk of cells — or, after merging, of a
 * contiguous prefix of chunks (the campaign accumulator is this same
 * type).
 */
class FleetShardAggregate
{
  public:
    /** Per-governor accumulators (index-aligned with the campaign's
        governor list). */
    struct GovernorAcc
    {
        uint64_t devices = 0;    //!< cells seen
        uint64_t censored = 0;   //!< loads that provably never finished
        uint64_t met = 0;        //!< loads inside the deadline
        uint64_t uncensored = 0; //!< sketch/sum sample count
        NeumaierSum ppwSum;      //!< uncensored PPW (for the mean)
        QuantileSketch ppw;
        QuantileSketch loadTime;
    };

    /** Per-cohort accumulators (vectors index-align with governors). */
    struct CohortAcc
    {
        uint64_t devices = 0; //!< devices (not cells) in the cohort
        std::vector<uint64_t> uncensored;
        std::vector<uint64_t> met;
        std::vector<uint64_t> censored;
        std::vector<NeumaierSum> ppwSum;
    };

    FleetShardAggregate() = default;

    /**
     * Start an empty aggregate covering cells beginning at
     * @p first_cell under @p governor_count governors. The digest
     * chain is seeded from the role: one chunk's chain covers its
     * cell digests; the campaign prefix's chain covers chunk digests.
     */
    static FleetShardAggregate forChunk(size_t governor_count,
                                        uint64_t first_cell);
    static FleetShardAggregate forCampaign(size_t governor_count);

    /**
     * Reduce one cell. Must be called in cell order (device-major,
     * governor minor — the grid order); @p new_device flags the
     * first governor cell of a device so cohort device counts count
     * devices, not cells.
     */
    void pushCell(size_t governor_index, const std::string &cohort,
                  bool new_device, const RunMeasurement &m);

    /**
     * Canonical left fold: append @p next, the aggregate of the
     * chunk immediately following this aggregate's cells. Panics on
     * a gap or governor-count mismatch — merging out of order is a
     * campaign-logic bug, never data-dependent.
     */
    void merge(const FleetShardAggregate &next);

    uint64_t firstCell() const { return firstCell_; }
    uint64_t cellCount() const { return cellCount_; }

    /**
     * Order-sensitive FNV chain (cell digests within a chunk; chunk
     * digests across a campaign prefix) — the byte-exact identity the
     * determinism and resume checks compare.
     */
    uint64_t digest() const { return digest_; }

    const std::vector<GovernorAcc> &governors() const
    {
        return governors_;
    }
    const std::map<std::string, CohortAcc> &cohorts() const
    {
        return cohorts_;
    }

    /** Wire and journal format (versioned snapshot section). */
    std::string serialize() const;
    [[nodiscard]] bool tryDeserialize(std::string_view bytes);

  private:
    enum class Role : uint8_t { Chunk = 0, Campaign = 1 };

    Role role_ = Role::Chunk;
    uint64_t firstCell_ = 0;
    uint64_t cellCount_ = 0;
    uint64_t digest_ = 0;
    std::vector<GovernorAcc> governors_;
    std::map<std::string, CohortAcc> cohorts_;
};

/**
 * One step of an order-sensitive FNV digest chain: the digest of
 * @p chain followed by @p link, as FleetShardAggregate chains cell and
 * chunk digests.
 */
uint64_t chainDigest(uint64_t chain, uint64_t link);

} // namespace dora

#endif // DORA_FLEET_AGGREGATE_HH
