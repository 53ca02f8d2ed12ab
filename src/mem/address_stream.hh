/**
 * @file
 * Synthetic memory address stream generation.
 *
 * Tasks in the simulator (browser render phases, co-scheduled kernels) do
 * not execute real instructions; instead each task owns an AddressStream
 * that reproduces the *statistical* shape of its memory reference stream:
 * working-set size, spatial locality (sequential bursts), and temporal
 * locality (a hot subset that absorbs a configurable fraction of
 * references). Streams from different tasks are disjoint in the address
 * space, so all interaction between tasks happens where it does on real
 * hardware: capacity/conflict contention in the shared L2 and bandwidth
 * contention at the memory controller.
 */

#ifndef DORA_MEM_ADDRESS_STREAM_HH
#define DORA_MEM_ADDRESS_STREAM_HH

#include <cstdint>

#include "common/rng.hh"

namespace dora
{

class SnapshotReader;
class SnapshotWriter;

/**
 * Statistical description of a reference stream.
 *
 * The generator draws, per access, either from a small "hot" region
 * (temporal locality; mostly cache-resident) or from the full working
 * set, and extends each draw into a sequential burst (spatial locality).
 */
struct AddressStreamSpec
{
    /** Total working-set size in bytes (span of generated addresses). */
    uint64_t workingSetBytes = 1 << 20;

    /** Fraction of region draws that target the hot subset [0,1]. */
    double hotFraction = 0.6;

    /** Hot subset size as a fraction of the working set (0,1]. */
    double hotSetFraction = 0.05;

    /**
     * Probability that a burst continues to the next sequential line;
     * expected burst length is 1/(1-p).
     */
    double burstContinueProb = 0.5;

    /** Maximum burst length in lines (safety cap). */
    uint64_t burstCap = 64;
};

/**
 * Generates 64-bit line addresses according to an AddressStreamSpec.
 *
 * Addresses are line-granular (already divided by the cache line size)
 * and offset by a caller-provided base so concurrent streams never alias.
 */
class AddressStream
{
  public:
    /**
     * @param spec  statistical shape of the stream
     * @param base_line  address-space base, in line units; choose bases
     *                   at least workingSetBytes/64 apart across streams;
     *                   every emitted line must stay below
     *                   CacheModel::kInvalidTag (panics otherwise)
     * @param rng   deterministic generator owned by the stream
     */
    AddressStream(const AddressStreamSpec &spec, uint64_t base_line,
                  Rng rng);

    /** Next line address in the stream. */
    uint64_t next();

    /**
     * Emit the next @p n line addresses into @p out — exactly the
     * sequence n successive next() calls would produce (same RNG draw
     * order and count, same final cursor/burst state), but generated
     * burst-run-at-a-time so the inner loop is a sequential fill
     * instead of a per-access call. The batched walk kernel's phase-A
     * generator (DESIGN.md §5g).
     */
    void nextRuns(uint64_t *out, uint32_t n);

    /** The spec this stream was built from. */
    const AddressStreamSpec &spec() const { return spec_; }

    /** Working-set span in lines (the range next() draws from). */
    uint64_t wsLines() const { return wsLines_; }

    /**
     * Replace the statistical shape mid-stream (used when a render task
     * transitions between phases with different locality). Bumps the
     * phase generation(). Panics on a spec outside its documented
     * ranges (NaN included) or on a burstCap of 0.
     */
    void reshape(const AddressStreamSpec &spec);

    /**
     * Process-unique identity of this stream object. Stable for the
     * stream's lifetime and never reused, so the adaptive sampling
     * layer can detect task starts/finishes (stream swaps) by value
     * without dereferencing possibly-dead pointers. Only equality of
     * ids is meaningful — the values themselves depend on allocation
     * order.
     */
    uint64_t streamId() const { return streamId_; }

    /**
     * Phase generation: starts at 0 and increments on every reshape().
     * (streamId, generation) therefore names one statistical phase of
     * one stream — the phase-signature component the MissRateEstimator
     * keys its cached sample results on.
     */
    uint64_t generation() const { return generation_; }

    /**
     * Serialize the full draw state (spec, RNG words, burst cursor).
     * streamId() is identity, not state: it is recorded only as a
     * fingerprint and never overwritten on restore.
     */
    void snapshot(SnapshotWriter &w) const;

    /**
     * Restore into this stream object (same-process replay: the
     * estimator's cached signatures reference streamId()s, which stay
     * valid only for the original objects). False on mismatch.
     */
    [[nodiscard]] bool tryRestore(SnapshotReader &r);

  private:
    /** Recompute the draw thresholds from spec_. */
    void setThresholds();

    AddressStreamSpec spec_;
    uint64_t baseLine_;
    uint64_t wsLines_;
    uint64_t hotLines_;
    // Rng::chanceThreshold() of spec_.hotFraction / burstContinueProb:
    // the per-draw compares of next() and nextRuns().
    uint64_t hotThreshold_ = 0;  // dora:snapshot-exclude(derived from spec_)
    uint64_t burstThreshold_ = 0;  // dora:snapshot-exclude(derived)
    Rng rng_;
    uint64_t streamId_;
    uint64_t generation_ = 0;

    // Current burst state. Invariant: cursor_ < wsLines_, so next()
    // never needs a modulo on the emitted line.
    uint64_t cursor_ = 0;
    uint64_t burstLeft_ = 0;
};

} // namespace dora

#endif // DORA_MEM_ADDRESS_STREAM_HH
