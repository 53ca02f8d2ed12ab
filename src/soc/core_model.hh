/**
 * @file
 * Per-core timing model.
 *
 * Each core executes one task at a time. The timing model is a classic
 * miss-rate-driven CPI decomposition: the task supplies a base CPI (its
 * compute behaviour with a perfect memory hierarchy), a memory reference
 * rate, and a memory-level-parallelism factor; the measured L1/L2 miss
 * rates and the DRAM effective latency convert into stall CPI. Retired
 * instructions per tick follow from available cycles / CPI.
 *
 * The tick protocol is two-phase so the shared L2 sees all cores'
 * samples interleaved (see MemSystem):
 *   1. planTick()  — size this core's address sample for the tick;
 *   2. finishTick() — turn measured miss rates into timing and stats.
 */

#ifndef DORA_SOC_CORE_MODEL_HH
#define DORA_SOC_CORE_MODEL_HH

#include <cstdint>

#include "mem/mem_system.hh"

namespace dora
{

class AddressStream;
class SnapshotReader;
class SnapshotWriter;

/** What a task demands from its core for one tick. */
struct TaskDemand
{
    /** True when the task has work this tick. */
    bool active = false;

    /** CPI with a perfect memory hierarchy (>= some pipeline floor). */
    double baseCpi = 1.0;

    /** L1D references per instruction. */
    double memRefsPerInstr = 0.2;

    /** Average overlapped misses (divides the DRAM stall penalty). */
    double mlp = 1.5;

    /** Fraction of the tick the task wants the core (1 = fully busy). */
    double dutyCycle = 1.0;

    /** Remaining instructions before the task (phase) completes. */
    double instrBudget = 0.0;

    /** Core switching-activity factor in [0,1] for dynamic power. */
    double activityFactor = 0.5;

    /** Address stream for cache sampling (non-owning). */
    AddressStream *stream = nullptr;
};

/** Timing results of one core-tick. */
struct TickResult
{
    double instructions = 0.0;   //!< instructions retired this tick
    double utilization = 0.0;    //!< busy fraction of the tick
    double cpi = 0.0;            //!< effective CPI while busy
    double l1Accesses = 0.0;     //!< scaled L1 references this tick
    double l2Accesses = 0.0;     //!< scaled L2 lookups (L1 misses)
    double l2Misses = 0.0;       //!< scaled L2 misses this tick
    double effectiveActivity = 0.0;  //!< activity x utilization (power)
};

/** Latency parameters of the core pipeline and cache levels. */
struct CoreTimingConfig
{
    double l2HitLatencyNs = 7.0;  //!< L1-miss/L2-hit service time
    double samplingRatio = 1.0 / 256.0;  //!< sampled refs per real ref
    uint32_t minSamples = 32;
    uint32_t maxSamples = 8192;

    bool operator==(const CoreTimingConfig &) const = default;
};

/**
 * One application core. Stateless across ticks except for cumulative
 * counters and the previous tick's CPI (used to size the next sample).
 */
class CoreModel
{
  public:
    CoreModel(uint32_t id, const CoreTimingConfig &config);

    /**
     * Phase 1: produce the sampled-access request for this tick.
     * @param demand  the task's demand (may be inactive)
     * @param dt_sec  tick duration
     * @param core_mhz current core frequency
     */
    MemSampleRequest planTick(const TaskDemand &demand, double dt_sec,
                              double core_mhz) const;

    /**
     * Phase 2: given the measured miss rates, account timing.
     * Also commits scaled traffic into @p mem.
     */
    TickResult finishTick(const TaskDemand &demand,
                          const MemSampleResult &sample, double dt_sec,
                          double core_mhz, MemSystem &mem);

    /** Core id (index into the SoC). */
    uint32_t id() const { return id_; }

    /** Cumulative retired instructions. */
    double totalInstructions() const { return totalInstructions_; }

    /** Cumulative busy time in seconds. */
    double totalBusySeconds() const { return totalBusySeconds_; }

    /** Reset cumulative counters (new run). */
    void reset();

    /** Serialize cumulative counters and the CPI feedback state. */
    void snapshot(SnapshotWriter &w) const;

    /** Restore a snapshot; false on section/version mismatch. */
    [[nodiscard]] bool tryRestore(SnapshotReader &r);

  private:
    /** Clamp a scaled sample count into [minSamples, maxSamples]. */
    double clampToSamples(double scaled) const;

    uint32_t id_;
    CoreTimingConfig config_;  // dora:snapshot-exclude(construction config)
    double lastCpi_ = 1.0;
    double totalInstructions_ = 0.0;
    double totalBusySeconds_ = 0.0;
};

/**
 * The CPI decomposition used by CoreModel, exposed for unit testing and
 * for documentation of the timing math.
 *
 * @param base_cpi        pipeline CPI
 * @param refs_per_instr  L1D references per instruction
 * @param l1_miss_rate    misses per L1 reference
 * @param l2_local_miss_rate misses per L2 lookup
 * @param l2_hit_ns       L2 service time for an L1 miss
 * @param dram_ns         effective DRAM latency
 * @param mlp             memory-level parallelism divisor for DRAM time
 * @param core_mhz        core frequency (converts ns to cycles)
 */
double computeCpi(double base_cpi, double refs_per_instr,
                  double l1_miss_rate, double l2_local_miss_rate,
                  double l2_hit_ns, double dram_ns, double mlp,
                  double core_mhz);

} // namespace dora

#endif // DORA_SOC_CORE_MODEL_HH
