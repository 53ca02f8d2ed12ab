/**
 * @file
 * Adaptive reuse of converged memory-sample results.
 *
 * The Monte-Carlo cache walk (MemSystem::tickSample, up to maxSamples
 * L1/L2 probes per core per tick) dominates the simulator's per-tick
 * cost, yet once a *phase* has converged — same streams, same co-runner
 * set, same operating point, cache contents warmed to steady state —
 * every further walk re-measures the same rates.
 *
 * MissRateEstimator exploits that. Each tick the SoC builds a *phase
 * signature* — per core the (streamId, generation) of its address
 * stream and its active bit, plus the OPP index and the interleave
 * chunk — and asks the estimator whether a fresh walk is needed. A
 * fresh walk happens when
 *
 *   - the signature has no cached entry (task start/finish, stream
 *     reshape, granted-OPP change — anything that moves the signature),
 *   - the phase has not yet *converged* (see below),
 *   - the phase is being re-validated: the periodic confidence refresh
 *     is due (every refreshTicks reused ticks) or the phase just
 *     returned from dormancy (another phase ran in between, so the
 *     shared caches may have shifted under it), or
 *   - the estimator was explicitly invalidated (fault conditioning,
 *     thermal emergency), or is disabled (exact-ticks mode).
 *
 * Otherwise the cached per-core MemSampleResults are served and the
 * walk is skipped entirely.
 *
 * Convergence is *measured*, not assumed: skipping walks also freezes
 * cache warm-up (the walk's probes are what fill the modeled caches),
 * so a phase must be sampled densely while its miss rates still decay.
 * Two gates must both pass before reuse begins:
 *
 *   1. A first-principles warm-up floor. A slow cache transient drifts
 *      *below* per-walk sampling noise, so no pairwise statistical
 *      test can distinguish "converged" from "warming slowly" — and a
 *      premature freeze halts the warm-up itself, locking the error
 *      in. The estimator therefore requires each active stream's
 *      cumulative walk probes to cover its warmable cold region
 *      (~kappa * min(wsLines, l2Lines) / coldFraction) first. Warmth
 *      is tracked per (streamId, generation) — cache contents survive
 *      OPP switches, so a stream does not re-warm when only the
 *      operating point (and hence the signature) changes.
 *   2. A statistical agreement test: checkpoints over doubling windows
 *      (walk 2^k vs walk 2^(k-1)) must agree within the binomial
 *      sampling noise.
 *
 * Re-validation walks run the same agreement test against the cached
 * rates and demote the phase back to dense sampling when they drift —
 * residual transients self-heal even if a checkpoint pair agreed by
 * chance.
 *
 * OPP-sibling seeding: a governor decision renames the phase (the OPP
 * index is part of the signature) without touching the cache contents
 * — warmth is keyed on the stream, and the miss rates of a warmed
 * phase do not depend on clock frequency. Forcing every OPP rename
 * through the full dense-sampling ladder is therefore almost pure
 * waste (profiles show it dominating sampled ticks under DVFS-heavy
 * governors). When an unknown signature differs from a *converged*
 * entry only in its OPP index, the install walk doubles as a
 * revalidation against that sibling's rates: if the fresh walk agrees
 * within the usual binomial noise (and the warm-up floor is met), the
 * new phase converges immediately; if not, it falls back to the dense
 * ladder. The gate is the same statistical test as a dormancy-return
 * revalidation, so accuracy is never assumed — only transferred when
 * measurement confirms it.
 *
 * Determinism: all state is per-Soc (per experiment run), signatures
 * are compared only by equality, and eviction follows deterministic
 * tick counts — runs reproduce bit-identically at any --jobs count.
 */

#ifndef DORA_MEM_MISS_RATE_ESTIMATOR_HH
#define DORA_MEM_MISS_RATE_ESTIMATOR_HH

#include <cstdint>
#include <vector>

#include "mem/mem_system.hh"

namespace dora
{

class SnapshotReader;
class SnapshotWriter;

/** Tunables of the adaptive sampling layer. */
struct MissRateEstimatorConfig
{
    /**
     * Periodic confidence refresh: a converged phase is re-validated
     * with a fresh walk after this many consecutive reused ticks,
     * bounding the time a drifting phase can serve stale rates.
     */
    uint32_t refreshTicks = 24;

    /**
     * Walk count of the first convergence checkpoint; subsequent
     * checkpoints double (c, 2c, 4c, ...). Smaller values converge
     * sooner on flat phases, larger values resist declaring a slow
     * transient converged off a lucky pair.
     */
    uint32_t convergeTicks = 8;

    /** Cached phases kept before evicting the least recently used. */
    uint32_t maxEntries = 16;

    /**
     * Warm-up coverage factor kappa: a stream is warm once its
     * cumulative walk probes reach kappa * warmableLines /
     * coldFraction (expected probes to touch ~90 % of the cold lines
     * that can actually be cached). Raising it trades speed for
     * fidelity on slow-transient (large working set) streams.
     */
    double warmCoverage = 2.0;

    bool operator==(const MissRateEstimatorConfig &) const = default;
};

/**
 * Phase-keyed cache of converged per-core sample results.
 */
class MissRateEstimator
{
  public:
    /**
     * @p exact turns the adaptive path off, so every tick walks: Soc
     * passes exactTicksMode() (DORA_EXACT_TICKS=1 or --exact-ticks).
     */
    MissRateEstimator(const MissRateEstimatorConfig &config, bool exact);

    /** True when the adaptive path is active. */
    bool enabled() const { return enabled_; }

    /**
     * Tell the estimator the shared L2's line capacity (bounds the
     * warmable portion of a working set). Soc calls this once at
     * construction; the default matches the 2 MB / 64 B MSM8974 L2.
     */
    void setL2Lines(uint64_t lines);

    /**
     * Start a tick: build the phase signature from @p requests (index-
     * parallel to cores) plus the shared-state components, and decide
     * whether this tick needs a fresh walk.
     *
     * @return true  -> caller must run MemSystem::tickSample and then
     *                  store() the results;
     *         false -> caller should fill() from the cache instead.
     *
     * Never returns false when disabled.
     */
    bool beginTick(const std::vector<MemSampleRequest> &requests,
                   uint64_t opp_index, uint32_t interleave_chunk);

    /** Record the fresh walk results for the signature of beginTick(). */
    void store(const std::vector<MemSampleResult> &results);

    /** Serve the cached results for the signature of beginTick(). */
    void fill(std::vector<MemSampleResult> &results) const;

    /**
     * Drop every cached phase (fault conditioning, thermal emergency):
     * each phase re-converges from scratch.
     */
    void invalidate();

    /** Ticks that skipped the walk since construction/reset(). */
    uint64_t reusedTicks() const { return reusedTicks_; }

    /** Ticks that ran a fresh walk since construction/reset(). */
    uint64_t sampledTicks() const { return sampledTicks_; }

    /** Re-validation walks that demoted a converged phase. */
    uint64_t demotions() const { return demotions_; }

    /** Phases converged instantly off an agreeing OPP sibling. */
    uint64_t seededPhases() const { return seededPhases_; }

    /** Explicit invalidations since construction/reset(). */
    uint64_t invalidations() const { return invalidations_; }

    /** Distinct phases currently cached. */
    size_t cachedPhases() const { return entries_.size(); }

    /** Clear all cached state and counters (new run). */
    void reset();

    /**
     * Serialize cached phases, warm-up accounts, and counters. Cached
     * signatures embed streamId()s, which are process-unique object
     * identities — a restored estimator is only meaningful in the same
     * process with the same stream objects (checkpoint/replay), never
     * across processes.
     */
    void snapshot(SnapshotWriter &w) const;

    /** Restore a snapshot; false on section/version mismatch. */
    [[nodiscard]] bool tryRestore(SnapshotReader &r);

    const MissRateEstimatorConfig &config() const { return config_; }

  private:
    /** One core's contribution to the phase signature. */
    struct CoreKey
    {
        uint64_t streamId = 0;    //!< 0 when inactive
        uint64_t generation = 0;  //!< reshape count of the stream

        bool operator==(const CoreKey &o) const
        {
            return streamId == o.streamId && generation == o.generation;
        }
    };

    /** Full phase signature. */
    struct Signature
    {
        std::vector<CoreKey> cores;
        uint64_t oppIndex = 0;
        uint32_t interleaveChunk = 0;

        bool operator==(const Signature &o) const
        {
            return oppIndex == o.oppIndex &&
                interleaveChunk == o.interleaveChunk &&
                cores == o.cores;
        }
    };

    /** One cached phase. */
    struct Entry
    {
        Signature signature;
        /** Rates served while reusing (the freshest walk's). */
        std::vector<MemSampleResult> results;
        /** Rates at the previous doubling checkpoint. */
        std::vector<MemSampleResult> checkpoint;
        bool converged = false;
        uint32_t walks = 0;          //!< walks since (re-)convergence began
        uint32_t nextCheckWalks = 0; //!< walk count of the next checkpoint
        /**
         * Checkpoint spacing; doubles on each disagreement. Tracked
         * separately from nextCheckWalks because the warm-up floor
         * can consume arbitrarily many walks before the first real
         * agreement test — doubling the absolute walk count there
         * would schedule the next checkpoint a whole cold-window of
         * dense walks past the point where the rates settled.
         */
        uint32_t checkWindow = 0;
        uint32_t reusesSinceSample = 0;  //!< drives the refresh
        uint64_t lastUseTick = 0;        //!< recency: LRU + dormancy
    };

    /** Why the pending walk was requested (consumed by store()). */
    enum class Pending
    {
        None,        //!< no walk outstanding
        Converging,  //!< dense sampling of an unconverged phase
        Revalidate,  //!< refresh / return-from-dormancy agreement test
        Install,     //!< unknown signature: create a new entry
    };

    /** Cumulative walk-probe account of one stream generation. */
    struct StreamWarmth
    {
        CoreKey key;
        double probes = 0.0;
        double targetProbes = 0.0;
        uint64_t lastUseTick = 0;
    };

    /** Restart convergence tracking of @p entry from @p results. */
    void beginConvergence(Entry &entry,
                          const std::vector<MemSampleResult> &results);

    /**
     * Credit this tick's walk probes to each active stream and report
     * whether every active stream has met its warm-up floor. Called
     * from beginTick() on ticks that will walk.
     */
    bool creditWalkProbes(const std::vector<MemSampleRequest> &requests);

    /**
     * True when two walks of the same phase agree within the binomial
     * noise of their sample sizes (no statistically visible drift).
     */
    static bool ratesAgree(const std::vector<MemSampleResult> &a,
                           const std::vector<MemSampleResult> &b);

    MissRateEstimatorConfig config_;  // dora:snapshot-exclude(construction config)
    bool enabled_;
    uint64_t l2Lines_ = (2u * 1024 * 1024) / 64;
    std::vector<Entry> entries_;
    std::vector<StreamWarmth> warmth_;
    /** "No seed candidate" sentinel for seedFrom_. */
    static constexpr size_t kNoSeed = static_cast<size_t>(-1);

    // dora:snapshot-exclude(per-tick scratch, reused across ticks)
    Signature scratchSig_;    //!< reused across ticks (no allocation)
    size_t currentEntry_ = 0; //!< entry selected by the last beginTick
    Pending pending_ = Pending::None;
    bool pendingWarm_ = false;  //!< warm-up floor met at the last walk
    /** Converged OPP sibling to seed a pending Install from. */
    size_t seedFrom_ = kNoSeed;
    uint64_t tickSerial_ = 0;
    uint64_t reusedTicks_ = 0;
    uint64_t sampledTicks_ = 0;
    uint64_t demotions_ = 0;
    uint64_t invalidations_ = 0;
    uint64_t seededPhases_ = 0;
};

} // namespace dora

#endif // DORA_MEM_MISS_RATE_ESTIMATOR_HH
