/**
 * @file
 * The modeled memory hierarchy: private per-core L1 data caches, a shared
 * L2, and the DRAM controller, glued together by the sampled-stream
 * access path described in DESIGN.md §5.1.
 *
 * Each simulation tick, every active core submits a *sample* of its
 * reference stream. MemSystem interleaves the samples (weighted round-
 * robin in small chunks, approximating concurrent execution), walks them
 * through L1 -> shared L2, and returns per-core miss rates. The core
 * timing model then scales those rates by the core's *real* access count
 * for the tick; the scaled miss counts feed MPKI accounting and DRAM
 * bandwidth demand.
 */

#ifndef DORA_MEM_MEM_SYSTEM_HH
#define DORA_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <vector>

#include "common/aligned.hh"
#include "mem/cache_model.hh"
#include "mem/dram_model.hh"

namespace dora
{

class AddressStream;
class SnapshotReader;
class SnapshotWriter;

/** Configuration of the full hierarchy (defaults mirror Table II). */
struct MemSystemConfig
{
    uint32_t numCores = 4;
    CacheConfig l1;        //!< per-core private L1D; name is a prefix
    CacheConfig l2;        //!< shared unified L2
    DramConfig dram;
    /** Interleave chunk: consecutive samples a core issues at once. */
    uint32_t interleaveChunk = 8;

    MemSystemConfig();

    bool operator==(const MemSystemConfig &) const = default;
};

/** One core's sampled access request for a tick. */
struct MemSampleRequest
{
    uint32_t core = 0;
    AddressStream *stream = nullptr;  //!< non-owning; must outlive call
    uint32_t samples = 0;
};

/** Miss rates measured over one core's sample within a tick. */
struct MemSampleResult
{
    uint32_t core = 0;
    double l1MissRate = 0.0;
    /** Misses/access among this core's L2 lookups (local miss rate). */
    double l2LocalMissRate = 0.0;
    uint32_t samplesIssued = 0;
};

/** Cumulative, scaled (full-rate) memory statistics for one core. */
struct CoreMemCounters
{
    double l1Accesses = 0.0;
    double l1Misses = 0.0;
    double l2Accesses = 0.0;
    double l2Misses = 0.0;
};

/**
 * Owns the cache hierarchy and DRAM model and implements the per-tick
 * sampled access protocol.
 */
class MemSystem
{
  public:
    explicit MemSystem(const MemSystemConfig &config);

    /**
     * Issue all cores' samples for the current tick, interleaved, and
     * return per-core miss rates. Requests with zero samples yield a
     * zero-rate result.
     */
    std::vector<MemSampleResult>
    tickSample(const std::vector<MemSampleRequest> &requests);

    /**
     * Allocation-free variant for the per-tick hot path: @p results is
     * cleared and refilled (one entry per request, in request order).
     * Internal walk state lives in a member scratch buffer, so steady-
     * state ticks perform no heap allocation.
     */
    void tickSample(const std::vector<MemSampleRequest> &requests,
                    std::vector<MemSampleResult> &results);

    /**
     * Account a core's *actual* traffic for the tick, scaling the sampled
     * miss rates to the real access count. Adds L2-miss bytes to DRAM
     * demand.
     *
     * @param core           requesting core
     * @param real_accesses  number of L1 accesses the timing model
     *                       attributes to this tick
     * @param result         the sample result returned by tickSample()
     */
    void commitScaled(uint32_t core, double real_accesses,
                      const MemSampleResult &result);

    /** Close the tick: resolve DRAM utilization and effective latency. */
    void endTick(double dt_sec, double bus_mhz);

    /** Effective DRAM latency (ns) for use during the next tick. */
    double dramLatencyNs() const { return dram_.effectiveLatencyNs(); }

    /** DRAM bus utilization from the last tick. */
    double dramUtilization() const { return dram_.utilization(); }

    /** DRAM energy (J) from the last tick (traffic + background). */
    double dramLastTickEnergyJ() const { return dram_.lastTickEnergyJ(); }

    /** Scaled cumulative counters for @p core. */
    const CoreMemCounters &coreCounters(uint32_t core) const;

    /** Sum of scaled counters over all cores. */
    CoreMemCounters totalCounters() const;

    /** The shared L2 (for occupancy/interference introspection). */
    const CacheModel &l2() const { return l2_; }

    /** Private L1 of @p core. */
    const CacheModel &l1(uint32_t core) const;

    /**
     * Select the batched walk kernel for subsequent ticks. The kernel
     * generates each stream's sample up front (AddressStream::nextRuns),
     * probes the private L1s stream-at-a-time, and drains L1 misses
     * into the shared L2 from one flat list laid out in the legacy
     * round-robin chunk order, with hoisted raw-pointer loops, SIMD
     * tag compares, and next-miss prefetch (DESIGN.md §5g). Results are bit-identical to the
     * per-access walk; ticks fall back to it automatically whenever a
     * request shape or replacement policy the kernel does not cover
     * shows up. On by default (the per-access walk remains the
     * reference implementation the bit-identity suite compares
     * against); turn off to force the reference path.
     */
    void setBatchedWalk(bool on) { batchedWalk_ = on; }

    /** True when the batched walk kernel is selected. */
    bool batchedWalk() const { return batchedWalk_; }

    /** Invalidate all caches and reset counters (new experiment run). */
    void reset();

    /** Serialize every cache, the DRAM model, and scaled counters. */
    void snapshot(SnapshotWriter &w) const;

    /**
     * Restore a snapshot taken from a hierarchy with identical
     * geometry; false (and partial sub-restores rolled into the next
     * mismatch) on section or shape mismatch.
     */
    [[nodiscard]] bool tryRestore(SnapshotReader &r);

    const MemSystemConfig &config() const { return config_; }

  private:
    /** Walk state for one live stream within tickSample(). */
    struct LiveStream
    {
        const MemSampleRequest *req = nullptr;
        uint32_t remaining = 0;
        uint64_t l1Misses = 0;
        uint64_t l2Misses = 0;
    };

    /** Legacy reference walk: per-access interleaved L1 -> L2 probes. */
    void walkInterleaved(std::vector<LiveStream> &live);

    /**
     * Batched walk kernel: phase-separated, raw-pointer replay of
     * walkInterleaved() with identical results (DESIGN.md §5g).
     */
    void walkBatched(std::vector<LiveStream> &live);

    /** One shared-L2 request of the batched drain. */
    struct DrainEntry
    {
        uint64_t line = 0;
        uint32_t core = 0;    //!< requestor (L2 owner on fill)
        uint32_t stream = 0;  //!< live slot its L2 miss counts against
    };

    /**
     * Phases A+B of walkBatched(): generate every stream's sample,
     * probe the private L1s, and lay out the shared-L2 drain (the
     * pass count lands in walkPasses_, the requests in walkDrain_).
     */
    void walkBatchedPrepare(std::vector<LiveStream> &live);

    /** Phase C of walkBatched(): drain walkDrain_ into the shared L2. */
    void walkBatchedDrain(std::vector<LiveStream> &live);

    /** True when walkBatched() covers this tick's request shape. */
    bool batchedWalkEligible(
        const std::vector<MemSampleRequest> &requests) const;

    /** tickSample() head: fill liveScratch_; true if any samples. */
    bool buildLive(const std::vector<MemSampleRequest> &requests);

    /** tickSample() tail: rates from liveScratch_ into @p results. */
    void fillResults(const std::vector<MemSampleRequest> &requests,
                     std::vector<MemSampleResult> &results) const;

    MemSystemConfig config_;  // dora:snapshot-exclude(construction config)
    std::vector<CacheModel> l1s_;
    CacheModel l2_;
    DramModel dram_;
    std::vector<CoreMemCounters> counters_;
    // dora:snapshot-exclude(per-tick scratch, reused across ticks)
    std::vector<LiveStream> liveScratch_;  //!< reused across ticks
    // dora:snapshot-exclude(mode flag; both walk paths bit-identical)
    bool batchedWalk_ = true;

    // Batched-walk scratch, reused across ticks: the generated lines
    // and per-stream L1-miss index lists live in flat 64B-aligned
    // buffers sliced by walkOffsets_. walkDrain_ holds the tick's
    // shared-L2 requests in drain order, pass p at
    // [walkPassStart_[p], walkPassStart_[p + 1]); walkPassFill_ is the
    // counting sort's per-pass write cursor.
    AlignedVec<uint64_t> walkLines_;  // dora:snapshot-exclude(scratch)
    AlignedVec<uint32_t> walkMiss_;  // dora:snapshot-exclude(scratch)
    AlignedVec<DrainEntry> walkDrain_;  // dora:snapshot-exclude(scratch)
    std::vector<size_t> walkOffsets_;  // dora:snapshot-exclude(scratch)
    std::vector<size_t> walkPassStart_;  // dora:snapshot-exclude(scratch)
    std::vector<size_t> walkPassFill_;  // dora:snapshot-exclude(scratch)
    // dora:snapshot-exclude(scratch sizing, recomputed by prepare)
    uint64_t walkPasses_ = 0;  //!< drain passes sized by prepare
};

} // namespace dora

#endif // DORA_MEM_MEM_SYSTEM_HH
