/**
 * @file
 * The SoC assembly: cores + shared memory hierarchy + DVFS actuator.
 *
 * Mirrors the MSM8974 of the paper: four Krait-class cores behind
 * private L1s and a shared 2 MB L2, one frequency/voltage domain for the
 * application cores (the chipset scales all cores together), and a
 * memory bus whose clock is slaved to the core OPP.
 *
 * Frequency switches are not free: each transition stalls the cores for
 * a configurable interval (clock relock + voltage ramp), which is how
 * the paper's Section V-H switching overhead (up to ~3 % of execution
 * time for switch-happy workloads) arises in this reproduction.
 */

#ifndef DORA_SOC_SOC_HH
#define DORA_SOC_SOC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/mem_system.hh"
#include "mem/miss_rate_estimator.hh"
#include "soc/core_model.hh"
#include "soc/freq_table.hh"

namespace dora
{

class SnapshotReader;
class SnapshotWriter;

/** SoC-wide configuration. */
struct SocConfig
{
    uint32_t numCores = 4;
    CoreTimingConfig coreTiming;
    MemSystemConfig mem;
    /**
     * Adaptive memory-sampling reuse (see mem/miss_rate_estimator.hh).
     * Enabled by default; exact-ticks mode (DORA_EXACT_TICKS=1 or
     * setExactTicksMode) overrides it at Soc construction.
     */
    MissRateEstimatorConfig sampling;
    /** Core-stall time charged per frequency transition (seconds). */
    double freqSwitchPenaltySec = 60e-6;
    /** Extra energy per frequency transition (joules; PLL + PMIC). */
    double freqSwitchEnergyJ = 25e-6;

    bool operator==(const SocConfig &) const = default;
};

/** Aggregated outcome of one SoC tick, consumed by the power model. */
struct SocTickSummary
{
    std::vector<TickResult> perCore;
    double busMhz = 0.0;
    double coreMhz = 0.0;
    double voltage = 0.0;
    double dramEnergyJ = 0.0;     //!< DRAM traffic + background energy
    double switchEnergyJ = 0.0;   //!< DVFS transition energy this tick
    double dramUtilization = 0.0;
};

/** Cumulative counters a governor can sample (perf stand-in). */
struct PerfSnapshot
{
    double seconds = 0.0;            //!< simulated time of the snapshot
    double totalInstructions = 0.0;  //!< all cores
    double totalL2Misses = 0.0;      //!< scaled, all cores
    std::vector<double> coreInstructions;
    std::vector<double> coreBusySeconds;
};

/**
 * Owns the cores, the memory system, and the DVFS state.
 */
class Soc
{
  public:
    Soc(const SocConfig &config, FreqTable freq_table);

    /** Convenience: Nexus 5-like SoC with the MSM8974 table. */
    static Soc nexus5(const SocConfig &config = SocConfig());

    /**
     * Execute one tick for all cores.
     * @param demands one TaskDemand per core (size == numCores)
     * @param dt_sec  tick duration
     */
    SocTickSummary tick(const std::vector<TaskDemand> &demands,
                        double dt_sec);

    /**
     * Allocation-free variant for the per-tick hot path: fills
     * @p summary in place (perCore cleared and refilled). Demand and
     * request scratch space lives in member buffers, so steady-state
     * ticks perform no heap allocation.
     */
    void tick(const std::vector<TaskDemand> &demands, double dt_sec,
              SocTickSummary &summary);

    /**
     * First half of tick(): stall haircut, per-core sample planning,
     * and the adaptive reuse decision. Returns true when this tick
     * needs a hierarchy walk — the caller must then run
     * tickWalkLocal() before tickFinish(). When false, cached rates
     * were already filled in and tickFinish() may run directly. tick()
     * is exactly tickBegin + [tickWalkLocal] + tickFinish; the split
     * lets a caller time the walk on its own (the repository
     * benchmark's per-layer ledger does). The operating point must not
     * change between the two halves.
     */
    bool tickBegin(const std::vector<TaskDemand> &demands, double dt_sec);

    /** Run this tick's hierarchy walk and store its rates. */
    void tickWalkLocal();

    /** Second half of tick(): core timing, accounting, DRAM close. */
    void tickFinish(double dt_sec, SocTickSummary &summary);

    /**
     * Request operating point @p idx. Equal-index requests are free;
     * actual transitions charge the switch penalty against the next
     * tick and count toward switchCount().
     */
    void setFrequencyIndex(size_t idx);

    /** Current operating-point index. */
    size_t frequencyIndex() const { return freqIndex_; }

    /** Current operating point. */
    const OperatingPoint &operatingPoint() const;

    /** The DVFS table. */
    const FreqTable &freqTable() const { return freqTable_; }

    /** The memory hierarchy. */
    MemSystem &mem() { return mem_; }
    const MemSystem &mem() const { return mem_; }

    /** Core by index. */
    const CoreModel &core(uint32_t idx) const;

    /** Number of cores. */
    uint32_t numCores() const { return config_.numCores; }

    /** Number of frequency transitions since reset. */
    uint64_t switchCount() const { return switchCount_; }

    /** Total core-stall seconds charged to transitions since reset. */
    double switchStallSeconds() const { return switchStallSeconds_; }

    /** Cumulative counters for governors (cheap to copy). */
    PerfSnapshot perfSnapshot() const;

    /**
     * Drop all cached miss-rate phases: the next tick re-samples. The
     * harness calls this on fault conditioning and thermal emergencies
     * (events that may shift behaviour without moving the phase
     * signature). A no-op in exact-ticks mode.
     */
    void invalidateSampling() { sampling_.invalidate(); }

    /** The adaptive sampling layer (reuse/sample counters, config). */
    const MissRateEstimator &sampling() const { return sampling_; }

    /** Simulated seconds elapsed since reset. */
    double elapsedSeconds() const { return elapsedSeconds_; }

    /** Reset all state (caches, counters, time) for a new run. */
    void reset();

    /**
     * Serialize DVFS state, elapsed time, cores, memory hierarchy, and
     * the sampling estimator. Bound address streams are owned by tasks
     * and snapshotted by their owners, not here.
     */
    void snapshot(SnapshotWriter &w) const;

    /**
     * Restore a snapshot taken from an identically configured SoC;
     * false on section, version, or shape mismatch.
     */
    [[nodiscard]] bool tryRestore(SnapshotReader &r);

    const SocConfig &config() const { return config_; }

  private:
    SocConfig config_;  // dora:snapshot-exclude(construction config)
    // dora:snapshot-exclude(construction table; shape verified on restore)
    FreqTable freqTable_;
    MemSystem mem_;
    MissRateEstimator sampling_;
    std::vector<CoreModel> cores_;
    size_t freqIndex_;
    double pendingSwitchStallSec_ = 0.0;
    double pendingSwitchEnergyJ_ = 0.0;
    uint64_t switchCount_ = 0;
    double switchStallSeconds_ = 0.0;
    double elapsedSeconds_ = 0.0;
    /** Per-tick scratch buffers, reused across ticks. */
    std::vector<TaskDemand> effectiveScratch_;  // dora:snapshot-exclude(scratch)
    std::vector<MemSampleRequest> requestScratch_;  // dora:snapshot-exclude(scratch)
    std::vector<MemSampleResult> resultScratch_;  // dora:snapshot-exclude(scratch)
};

} // namespace dora

#endif // DORA_SOC_SOC_HH
