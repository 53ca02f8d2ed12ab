/**
 * @file
 * RunContext: one measurement run (ExperimentRunner::runCustom) turned
 * into an explicit, resumable state machine.
 *
 * The legacy run loop owned everything on its stack: the simulated
 * device, the governor driver, the page load, and the window
 * accumulators lived inside one function from warmup to finalization.
 * RunContext hoists that state into an object with an advance() step,
 * so a run can be snapshotted and rewound mid-flight, carry riders
 * (the cell executor's governor gangs), and, in exact-ticks mode, be
 * split into advanceBegin()/advanceFinish() around the memory walk so
 * a caller can time the walk on its own.
 *
 * Contract: driving a RunContext with `while (!done()) advance();
 * finish()` reproduces the legacy loop bit-for-bit — the transition
 * points, latch order, and accumulator arithmetic are the same
 * statements in the same order (tests/exec/parallel_determinism_test.cc
 * pins this down against ExperimentRunner on every execution tier).
 *
 * RunCell is the owned form of one run's parameters, and makeRunCell()
 * the one recipe that builds it: the cell executor
 * (sim/cell_executor.hh) runs every campaign grid from such cells, and
 * ExperimentRunner::run() builds its co-runner through the same
 * recipe.
 */

#ifndef DORA_RUNNER_RUN_CONTEXT_HH
#define DORA_RUNNER_RUN_CONTEXT_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "browser/page_load.hh"
#include "fault/fault_injector.hh"
#include "power/device_power.hh"
#include "runner/experiment.hh"
#include "sim/simulator.hh"
#include "soc/soc.hh"
#include "stats/running_stat.hh"

namespace dora
{

class RunTrace;

/** Core pinning per the paper: browser on 0-1, co-runner on 2, 3 off. */
constexpr uint32_t kMainCore = 0;
constexpr uint32_t kHelperCore = 1;
constexpr uint32_t kCorunCore = 2;

/** Bounded-retry policy for rejected DVFS writes. */
constexpr int kMaxActuatorRetries = 3;
constexpr double kActuatorRetryBackoffSec = 0.005;  //!< doubles per try

/**
 * Drives a governor at its decision interval, computing the windowed
 * signals (utilizations, MPKI) from perf-counter deltas exactly as a
 * userspace daemon would. An optional FaultInjector perturbs the
 * sensor, actuator, and thermal paths; without one (or with an empty
 * schedule) the driver behaves exactly as the fault-free original.
 */
class GovernorDriver
{
  public:
    GovernorDriver(Simulator &sim, Governor &governor, double deadline_sec,
                   FaultInjector *fault = nullptr);

    /** Set the page context (null while no page is loading). */
    void setPage(const WebPageFeatures *page, double load_start_sec)
    {
        page_ = page;
        loadStartSec_ = load_start_sec;
    }

    /** Attach a run trace sink (null = tracing disabled). */
    void setTrace(RunTrace *trace) { trace_ = trace; }

    /**
     * Let @p riders follow this run: at every decision each one is
     * handed the same GovernorView, and it is dropped, for good, at
     * the first one where it requests another raw OPP index than this
     * driver's governor.
     */
    void setRiders(std::vector<Governor *> riders)
    {
        riders_ = std::move(riders);
    }

    /** True while rider @p r has requested every index so far. */
    bool riderKept(size_t r) const { return riders_[r] != nullptr; }

    /** Invoke the governor if its interval has elapsed. */
    void maybeDecide();

    /** All decisions taken so far (warmup included). */
    const std::vector<DecisionRecord> &decisions() const
    {
        return decisions_;
    }

    /**
     * Earliest simulated time at which this driver can act again: the
     * next decision boundary, or a pending actuator retry, whichever
     * comes first. The event horizon for macro-tick batching — between
     * now and this time, maybeDecide() is a guaranteed no-op, so the
     * ticks in between are quiescent and may be batched.
     */
    double nextEventSec() const;

    /**
     * Serialize the driver's decision/retry state (not the governor —
     * the caller snapshots that separately). Same-object restore only.
     */
    void snapshot(SnapshotWriter &w) const;
    [[nodiscard]] bool tryRestore(SnapshotReader &r);

  private:
    void applyFrequency(double now, size_t target);
    void maybeRetryActuator(double now);
    void applyThermalEmergency(double now);

    Simulator &sim_;  // dora:snapshot-exclude(snapshotted by the owner)
    Governor &governor_;  // dora:snapshot-exclude(snapshotted by the owner)
    double deadlineSec_;  // dora:snapshot-exclude(construction config)
    PerfSnapshot prev_;
    // dora:snapshot-exclude(snapshots refuse fault-injected runs)
    FaultInjector *fault_;          //!< null when fault-free
    double baseAmbientC_;  // dora:snapshot-exclude(derived at construction)
    double appliedAmbientDeltaC_ = 0.0;
    bool havePendingWrite_ = false;
    size_t pendingTarget_ = 0;
    int retryAttempts_ = 0;
    double retryBackoffSec_ = 0.0;
    double nextRetrySec_ = 0.0;
    bool warnedOutOfRange_ = false;
    // dora:snapshot-exclude(same-object restore: binding must match)
    const WebPageFeatures *page_ = nullptr;
    double loadStartSec_ = 0.0;
    double lastDecisionSec_ = 0.0;
    bool decided_ = false;
    // dora:snapshot-exclude(snapshots refuse traced runs)
    RunTrace *trace_ = nullptr;  //!< null when tracing is disabled
    // dora:snapshot-exclude(snapshots refuse runs with riders)
    std::vector<Governor *> riders_;  //!< null once dropped
    std::vector<DecisionRecord> decisions_;
};

/**
 * One run in flight. Construction replicates the legacy runCustom()
 * preamble (device build, task binding, governor reset, trace attach);
 * advance() executes one scheduling quantum — a single tick in
 * exact-ticks mode, one macro-tick batch otherwise; finish() performs
 * the legacy finalization and returns the measurement.
 */
class RunContext
{
  public:
    struct Params
    {
        const WebPage *page = nullptr;  //!< null: co-runner alone
        Task *corun = nullptr;          //!< null: page alone
        std::string label;
        Governor *governor = nullptr;   //!< required
        std::optional<size_t> initialFreq;
        FaultInjector *fault = nullptr; //!< non-owning; reset per run
        /**
         * Governors riding this run (GovernorDriver::setRiders), reset
         * with @ref governor. A rider still kept at the end would have
         * produced this run's measurement under its own name. Only the
         * cell executor attaches riders, and never to a traced or
         * fault-injected run.
         */
        std::vector<Governor *> riders;
        /**
         * The caller keeps this run's measurement only if the page
         * finishes inside the load wall, and the run's OPP is pinned
         * (a FixedGovernor from the same initial OPP). The window then
         * also closes at the first quantum where provablyLate() holds
         * for the elapsed load time and PageLoad::floorRemainingSec()
         * at the current OPP: the page can no longer finish in time
         * (DESIGN.md §5l). Such a run never rides or leads a gang.
         */
        bool discardUnlessFinished = false;
    };

    /** What the next exact-ticks step needs from the caller. */
    enum class StepPlan
    {
        Finished,  //!< run complete; no step pending
        NoWalk,    //!< step needs no memory walk: call advanceFinish()
        Walk,      //!< walk pending: run soc().tickWalkLocal(), then
                   //!< advanceFinish()
    };

    RunContext(const ExperimentConfig &config, const Params &params);
    ~RunContext();

    /**
     * PageLoad::loadFloorSec() of @p page at a pinned @p core_mhz,
     * under the render cost model every run builds its page load from.
     */
    static double loadFloorSec(const WebPage &page, double core_mhz);

    /**
     * True when a page load @p elapsed_sec into its window, which needs
     * at least @p floor_sec more, can no longer finish inside
     * @p config's load wall: elapsed time plus floor passes maxLoadSec
     * by more than 2 dtSec, the margin for the closing tick and the
     * clock's drift (DESIGN.md §5l).
     */
    static bool provablyLate(const ExperimentConfig &config,
                             double elapsed_sec, double floor_sec);

    RunContext(const RunContext &) = delete;
    RunContext &operator=(const RunContext &) = delete;

    /** True once the measurement window has closed. */
    bool done();

    /**
     * Execute one quantum: a single tick in exact-ticks mode, else one
     * macro-tick batch up to the driver's next event horizon. No-op
     * when done.
     */
    void advance();

    /**
     * First half of one exact-ticks step: phase transitions, governor
     * decision, pre-step latches, Simulator::stepBegin(). The caller
     * must complete the step per the returned plan before touching this
     * context again. Exact-ticks mode only (panics otherwise).
     */
    StepPlan advanceBegin();

    /**
     * Second half of one exact-ticks step: Simulator::stepFinish() plus
     * the window accumulators. Pairs with an advanceBegin() that
     * returned NoWalk (directly) or Walk (after the walk ran).
     */
    void advanceFinish();

    /**
     * Legacy finalization: assemble the RunMeasurement, bump metrics,
     * submit the trace (first call only). Callable repeatedly — the
     * snapshot-rewind test finishes, restores, and finishes again.
     */
    RunMeasurement finish();

    Soc &soc() { return *soc_; }
    Simulator &sim() { return *sim_; }

    /** True when this run executes the exact per-tick loop. */
    bool exactTicks() const { return exact_; }

    /** True while rider @p r of Params::riders is still kept. */
    bool riderKept(size_t r) const { return driver_->riderKept(r); }

    /**
     * Serialize the full run state mid-flight. Refuses (panics) when a
     * trace, a fault injector or riders are attached — none supports
     * snapshot. Restore into the SAME context (same
     * label/page/corun/governor).
     */
    void snapshot(SnapshotWriter &w) const;
    [[nodiscard]] bool tryRestore(SnapshotReader &r);

  private:
    enum class Phase : uint8_t { Warmup = 0, Window = 1, Done = 2 };

    /** Apply every pending stepless phase transition. */
    void applyTransitions();
    void enterWindow();
    void accumulate(const TickTrace &trace);

    ExperimentConfig config_;  // dora:snapshot-exclude(construction config)
    Params params_;

    std::unique_ptr<Soc> soc_;  // dora:snapshot-exclude(state inside sim_)
    std::unique_ptr<DevicePower> power_;  // dora:snapshot-exclude(in sim_)
    std::unique_ptr<Simulator> sim_;
    uint64_t salt_ = 0;  // dora:snapshot-exclude(derived from the label)
    std::unique_ptr<GovernorDriver> driver_;
    // dora:snapshot-exclude(snapshots refuse traced runs)
    std::unique_ptr<RunTrace> trace_;
    bool exact_ = false;  // dora:snapshot-exclude(construction mode flag)

    Phase phase_ = Phase::Warmup;
    std::unique_ptr<PageLoad> page_;

    // Window accumulators (legacy loop locals).
    double t0_ = 0.0;
    double e0_ = 0.0;
    PerfSnapshot p0_;
    uint64_t switches0_ = 0;
    double corunBusy0_ = 0.0;
    RunningStat tempStat_;
    double freqTimeMhz_ = 0.0;
    std::vector<double> residency_;
    PowerBreakdown breakdownSum_;
    uint64_t windowTicks_ = 0;
    double windowWall_ = 0.0;
    double windowEnd_ = 0.0;

    // advanceBegin()/advanceFinish() handshake: live only inside one
    // split step, rewritten by every advanceBegin(); snapshots are
    // taken between whole steps.
    bool stepInWindow_ = false;  // dora:snapshot-exclude(per-step scratch)
    double stepMhz_ = 0.0;  // dora:snapshot-exclude(per-step scratch)

    bool reported_ = false;  //!< metrics/trace emitted by finish()
};

/**
 * One independent run with everything its RunContext borrows, owned,
 * so a cell can be built where it runs and outlive the caller's loop.
 * @ref params points into the members below; they live on the heap,
 * so a moved cell stays valid.
 */
struct RunCell
{
    ExperimentConfig config;
    RunContext::Params params;
    /** The kernel @ref corun runs, when makeRunCell() built it. */
    const KernelSpec *kernel = nullptr;
    std::unique_ptr<Task> corun;
    std::unique_ptr<Governor> governor;
    std::unique_ptr<FaultInjector> fault;
};

/**
 * The one cell recipe. A co-runner @p kernel is salted with "corun:" +
 * @p label, which keeps its streams apart from the page's ("page:" +
 * the same label, see RunContext). @p governor may be null when the
 * caller drives the run with a governor of its own. A non-null
 * @p faults gives the cell a private injector on that schedule; an
 * injector resets at run start, so every copy of one schedule replays
 * the same fault stream.
 */
RunCell makeRunCell(const ExperimentConfig &config, const WebPage *page,
                    const KernelSpec *kernel, const std::string &label,
                    std::unique_ptr<Governor> governor,
                    std::optional<size_t> initial_freq = std::nullopt,
                    const FaultSchedule *faults = nullptr);

} // namespace dora

#endif // DORA_RUNNER_RUN_CONTEXT_HH
