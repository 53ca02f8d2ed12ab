/**
 * @file
 * Deterministic, mergeable, fixed-memory quantile sketch for
 * streaming fleet aggregation (DESIGN.md §5i).
 *
 * KLL-style leveled compaction: samples enter a level-0 buffer; a
 * full level sorts itself and promotes every second item to the next
 * level (items at level l carry weight 2^l), so memory is
 * O(k · log(n/k)) while nearest-rank quantile queries keep a bounded
 * rank error. Two properties distinguish this sketch from the
 * textbook randomized KLL:
 *
 *  - **Deterministic compaction.** The keep-odd/keep-even parity of
 *    every compaction is drawn from a counter-seeded integer hash of
 *    (level, per-level compaction count), not from an RNG, so the
 *    sketch state is a pure function of the push/merge sequence —
 *    the property the fleet tier's byte-identity contract needs.
 *
 *  - **Exact small-N mode.** Up to kExactCap samples the sketch
 *    simply stores them in arrival order and answers exactly
 *    (matching EmpiricalCdf's nearest-rank semantics). While both
 *    operands are exact, merge() is genuine concatenation — fully
 *    associative and split-invariant. Fleet shard aggregates are
 *    sized to stay exact (a chunk holds at most a few hundred
 *    samples), so merging an exact shard into the running campaign
 *    sketch is bit-identical to having pushed the shard's samples
 *    one by one: the campaign-level state depends only on the global
 *    cell order, never on how cells were chunked or which execution
 *    tier produced them.
 *
 * Once compacted, merge() appends the right operand's buffers and
 * re-compacts — still deterministic for a fixed fold shape, which is
 * why every aggregation path in the fleet engine folds shard
 * aggregates left-to-right in chunk-index order (the canonical
 * fold). A compacted·compacted merge occurs only when a shard itself
 * outgrows kExactCap; the canonical fold keeps that deterministic
 * too.
 */

#ifndef DORA_STATS_QUANTILE_SKETCH_HH
#define DORA_STATS_QUANTILE_SKETCH_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dora
{

class SnapshotReader;
class SnapshotWriter;

/**
 * Mergeable quantile sketch. Unlike EmpiricalCdf there is no
 * seal() step: queries are const and cheap enough for report
 * emission (they sort a bounded scratch copy), and the sketch is
 * never shared across threads mid-build.
 */
class QuantileSketch
{
  public:
    /** Samples kept verbatim before the first compaction. */
    static constexpr size_t kExactCap = 1024;

    /** @p k: per-level buffer capacity (accuracy knob, >= 8). */
    explicit QuantileSketch(uint32_t k = 200);

    /** Add one sample. */
    void push(double x);

    /**
     * Fold @p next into this sketch (canonical left fold: `this` is
     * the running prefix, @p next the newly finished shard). While
     * both sides are exact this is associative concatenation; once
     * either side is compacted the result is deterministic for a
     * fixed fold shape. Requires equal k.
     */
    void merge(const QuantileSketch &next);

    /** Total samples pushed/merged. */
    uint64_t count() const { return n_; }

    /**
     * Nearest-rank q-quantile (q in [0,1]; q=1 returns the max) over
     * the sketch's weighted items — exact while in exact mode.
     * Panics when empty.
     */
    double quantile(double q) const;

    /** True until the first compaction (answers are exact). */
    bool exact() const { return exact_; }

    /** Items currently held across all buffers (memory gauge). */
    size_t storedItems() const;

    /**
     * Serialize/restore the full sketch state ("qskt" section).
     * A restored sketch continues bit-for-bit, so a shard read back
     * from the wire or the journal folds like the one that was
     * written.
     */
    void snapshot(SnapshotWriter &w) const;
    [[nodiscard]] bool tryRestore(SnapshotReader &r);

    /**
     * Serialized state via snapshot(); two sketches are
     * bit-identical iff these bytes match (the determinism tests'
     * comparator).
     */
    std::string stateBytes() const;

  private:
    struct Level
    {
        std::vector<double> items;  //!< weight 2^level each
        uint64_t compactions = 0;   //!< parity-seed counter
    };

    void compactLevel(size_t level);
    void compactExact();

    uint32_t k_;
    uint64_t n_ = 0;
    bool exact_ = true;
    std::vector<double> exactItems_;  //!< arrival order (exact mode)
    std::vector<Level> levels_;       //!< compacted mode
};

} // namespace dora

#endif // DORA_STATS_QUANTILE_SKETCH_HH
