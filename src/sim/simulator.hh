/**
 * @file
 * Time-stepped simulation kernel.
 *
 * Advances the SoC, device power, and all bound tasks in fixed ticks
 * (default 1 ms). The kernel is deliberately governor-agnostic: the
 * experiment harness interposes frequency decisions between ticks, which
 * keeps the layering identical to a real system (the governor is a
 * userspace daemon observing counters, not part of the hardware).
 */

#ifndef DORA_SIM_SIMULATOR_HH
#define DORA_SIM_SIMULATOR_HH

#include <functional>
#include <vector>

#include "power/device_power.hh"
#include "sim/task.hh"
#include "soc/soc.hh"

namespace dora
{

class SnapshotReader;
class SnapshotWriter;

/** Simulation kernel configuration. */
struct SimConfig
{
    double dtSec = 1e-3;       //!< tick duration
    double maxSeconds = 30.0;  //!< hard wall for runUntil()
};

/** Everything that happened during one tick. */
struct TickTrace
{
    double nowSec = 0.0;  //!< time at the *end* of the tick
    SocTickSummary soc;
    PowerBreakdown power;
};

/**
 * Owns the tick loop. SoC and DevicePower are borrowed (the harness
 * constructs and owns them so experiments can introspect afterwards).
 */
class Simulator
{
  public:
    Simulator(Soc &soc, DevicePower &power, const SimConfig &config);

    /**
     * Pin @p task to @p core (non-owning; caller keeps the task alive).
     * Pass nullptr to leave the core idle.
     */
    void bindTask(uint32_t core, Task *task);

    /**
     * Execute exactly one tick. Returns a reference to an internal
     * trace buffer that is overwritten by the next step() — copy it if
     * it must outlive the tick. Reusing the buffer (and the demand
     * scratch vector) keeps the per-tick hot path allocation-free.
     */
    const TickTrace &step();

    /**
     * First half of step(): collect task demands and run Soc::tickBegin.
     * Returns true when the tick needs a hierarchy walk; the caller
     * must then run soc().tickWalkLocal() before stepFinish(). step()
     * is exactly stepBegin + [tickWalkLocal] + stepFinish; the split
     * lets a caller time the walk on its own.
     */
    bool stepBegin();

    /** Second half of step(): SoC finish, power, task advancement. */
    const TickTrace &stepFinish();

    /** Outcome of one fastForward() batch. */
    struct FastForwardResult
    {
        uint64_t ticks = 0;    //!< ticks actually executed
        bool stopped = false;  //!< per_tick returned true (early stop)
    };

    /**
     * Macro-tick fast-forward: advance up to @p max_ticks in one
     * batched call. Every tick applies the *identical* per-tick
     * arithmetic as step() — task demand and progress, sampled (or
     * reused) miss rates, DRAM demand, power, and thermal state — so a
     * K=1 batch is bit-for-bit equal to step(), and a K-tick batch is
     * bit-for-bit equal to K step() calls. The caller guarantees the
     * batch is *quiescent*: no external intervention (governor
     * decision, actuator retry, fault event) is due before the event
     * horizon implied by @p max_ticks.
     *
     * @param per_tick optional observer evaluated after every tick;
     *                 returning true stops the batch early (page
     *                 finished, stop predicate hit).
     */
    FastForwardResult
    fastForward(uint64_t max_ticks,
                const std::function<bool(const TickTrace &)> &per_tick =
                    nullptr);

    /**
     * Ticks until simulated time reaches @p target_sec, clamped to at
     * least one: the event-horizon helper for fastForward() callers.
     * Computed conservatively (never overshoots the first tick whose
     * *pre-tick* time is >= target), so horizon boundaries land on
     * exactly the tick edges the legacy 1-tick loop would observe.
     */
    uint64_t ticksUntil(double target_sec) const;

    /**
     * Run until @p stop returns true (checked after every tick) or
     * config().maxSeconds elapses.
     *
     * @param stop      stop predicate
     * @param on_tick   optional observer invoked after each tick
     * @return simulated seconds consumed by this call
     */
    double runUntil(const std::function<bool()> &stop,
                    const std::function<void(const TickTrace &)> &on_tick =
                        nullptr);

    /** Current simulated time in seconds. */
    double nowSec() const { return soc_.elapsedSeconds(); }

    /**
     * Ticks executed since construction (or the last reset()). The
     * only observability hook on the tick hot path: one increment, no
     * branch — the harness folds it into the metrics registry at run
     * granularity.
     */
    uint64_t tickCount() const { return tickCount_; }

    /** fastForward() calls with max_ticks > 1 since construction. */
    uint64_t macroBatches() const { return macroBatches_; }

    /** Ticks executed inside batched (max_ticks > 1) fast-forwards. */
    uint64_t macroBatchedTicks() const { return macroBatchedTicks_; }

    /** The SoC under simulation. */
    Soc &soc() { return soc_; }
    const Soc &soc() const { return soc_; }

    /** The device power integrator. */
    DevicePower &power() { return power_; }
    const DevicePower &power() const { return power_; }

    const SimConfig &config() const { return config_; }

    /**
     * Reset SoC, power, and all bound tasks for a fresh run (bindings
     * are kept).
     */
    void reset();

    /**
     * Serialize tick counters plus the borrowed SoC and power state.
     * Bound tasks are NOT covered (they are borrowed, polymorphic, and
     * own their streams) — the caller checkpoints them separately.
     */
    void snapshot(SnapshotWriter &w) const;

    /** Restore a snapshot; false on section/version mismatch. */
    [[nodiscard]] bool tryRestore(SnapshotReader &r);

  private:
    Soc &soc_;
    DevicePower &power_;
    SimConfig config_;  // dora:snapshot-exclude(construction config)
    // dora:snapshot-exclude(task bindings, re-established by the owner)
    std::vector<Task *> tasks_;  //!< per core; nullptr = idle
    IdleTask idle_;  // dora:snapshot-exclude(stateless placeholder task)
    /** Per-tick scratch, reused across ticks (see step()). */
    std::vector<TaskDemand> demands_;  // dora:snapshot-exclude(scratch)
    // dora:snapshot-exclude(per-tick trace, rewritten by every step)
    TickTrace trace_;
    uint64_t tickCount_ = 0;
    uint64_t macroBatches_ = 0;
    uint64_t macroBatchedTicks_ = 0;
};

} // namespace dora

#endif // DORA_SIM_SIMULATOR_HH
