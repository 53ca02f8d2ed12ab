/**
 * @file
 * The traced path: replays rounds cell by cell from public
 * constructors, times the calls into each layer from outside, and
 * folds the timings into the per-layer ledger.
 *
 * Nothing here is compiled into the shipped libraries. Each cell is
 * rebuilt the way the harness and the fleet engine build it (page
 * from the corpus, co-runner salted with hashLabel("corun:" + label),
 * governor from makeNamedGovernor, fault schedule from
 * FaultSchedule::combined) and driven through RunContext by this
 * file, so the replay must reproduce the untraced round digest bit for
 * bit. Spans (round > cell > build/run/finish) stay in memory and are
 * written once at exit; per-tick phases are summed per cell.
 *
 * Layer attribution inside a run:
 *  - governor: a decorator around the governor times every decision;
 *  - exact-ticks mode: each tick is split with advanceBegin() /
 *    Soc::tickWalkLocal() / advanceFinish(), so the cache walk is
 *    timed directly;
 *  - adaptive mode: a quantum (advance()) is one macro-tick batch, so
 *    its wall minus governor time is fitted by least squares over all
 *    quanta of the run against its ticks and the cache probes its
 *    walks made (QuantumFit); the probe terms are the walk.
 *
 * The fit is checked, not trusted: its walk terms must not be
 * negative, and the walk cost per L1 probe it finds must agree with the
 * cost timed directly on a few of the same cells rerun with exact ticks
 * (calibrateWalk). What it leaves unexplained quantum by quantum (the
 * sum of absolute residuals over the sum of quantum walls) is reported.
 */

#ifndef DORA_BENCHMARK_LEDGER_HH
#define DORA_BENCHMARK_LEDGER_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rounds.hh"

namespace bench
{

/**
 * Least-squares fit of one adaptive quantum's wall (minus governor
 * time) as c + a * ticks + p1 * l1_probes + p2 * l2_probes, kept as
 * normal equations. The cache
 * walk is the only code that probes the modeled caches, so p1 and p2
 * price the walk; the intercept is the fixed cost of a quantum.
 */
struct QuantumFit
{
    static constexpr int kTerms = 4;
    using Terms = std::array<double, kTerms>;

    double xtx[kTerms][kTerms] = {};
    double xty[kTerms] = {};

    /** Add one quantum with design row @p x and @p ns of wall. */
    void add(const Terms &x, double ns);

    /**
     * Coefficients {c, a, p1, p2}. A term the data cannot separate
     * (no walks at all, say) gets coefficient 0.
     */
    Terms solve() const;
};

/** One adaptive quantum: its design row and its wall minus governor time. */
struct Quantum
{
    QuantumFit::Terms x = {};
    double ns = 0.0;
};

/**
 * Largest relative gap between fitted and timed walk ns per L1 probe.
 * On the benchmark's workloads the fit comes out 0-15 % below the
 * timed walk (part of the walk's per-tick set-up lands in the fit's
 * tick term); a negative or missing walk term lands far outside.
 */
constexpr double kProbeTolerance = 0.30;

/**
 * The rule an adaptive walk fit must pass: walk coefficients (p1, p2)
 * not negative, and @p fitted_ns_per_probe within kProbeTolerance of
 * @p timed_ns_per_probe. Returns why it fails; empty when it passes.
 */
std::string walkFitProblem(const QuantumFit::Terms &coef,
                           double fitted_ns_per_probe,
                           double timed_ns_per_probe);

/** Raw per-cell record of the traced path. */
struct CellTrace
{
    std::string governor;   //!< ledger key ("DORA", "fixed", ...)
    bool exact = false;
    int64_t startNs = 0;    //!< relative to the ledger epoch
    int64_t endNs = 0;
    int64_t buildNs = 0;    //!< RunContext construction
    int64_t runNs = 0;      //!< sum of quanta (advance / split steps)
    int64_t finishNs = 0;   //!< RunContext::finish
    double governorNs = 0.0;
    uint64_t decisions = 0;
    uint64_t quanta = 0;
    uint64_t ticks = 0;
    uint64_t walked = 0;
    uint64_t reused = 0;
    uint64_t seeded = 0;
    uint64_t demotions = 0;
    uint64_t invalidations = 0;
    uint64_t batchedTicks = 0;
    uint64_t l1Probes = 0;
    uint64_t l2Probes = 0;
    double walkNs = 0.0;    //!< exact only: measured walk time
    double aggregateNs = 0.0;  //!< fleet: FleetShardAggregate::pushCell
    std::vector<Quantum> fitRows;  //!< adaptive quanta of this cell
};

/** One recorded span. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;  //!< 0: none
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
};

/**
 * Traced replay of a run plus the ledger it produces.
 */
class Ledger
{
  public:
    explicit Ledger(Kind kind);

    /** Replay @p round on the traced path (same digest as runRound). */
    RoundResult runRound(const Round &round, const RunEnv &env);

    /**
     * Rerun a few of @p round's cells with exact ticks and time their
     * walk directly: the reference the adaptive fit is checked against.
     * The reruns stay out of every other ledger line.
     */
    void calibrateWalk(const Round &round, const RunEnv &env);

    /** Why the attribution cannot be trusted; empty when it can. */
    std::string invalidReason() const;

    /** Record the traced set-up's bundle training. */
    void noteTraining(double seconds, uint64_t ticks, double reuse_frac);

    /**
     * The per-layer metrics (BENCHMARK.json per_layer names).
     * @param untraced_wall_s wall of the same rounds untraced, for
     *        trace.overhead_frac
     */
    std::map<std::string, double> metrics(double untraced_wall_s) const;

    /** Workload-specific ledger lines (per-governor decision cost...). */
    std::map<std::string, double> extras() const;

    /** Write every span as one JSON object per line. */
    bool writeSpans(const std::string &path) const;

  private:
    /** The pooled adaptive fit and what it leaves unexplained. */
    struct FitSummary
    {
        QuantumFit::Terms coef = {};
        bool any = false;          //!< adaptive quanta were traced
        double walkNs = 0.0;       //!< fitted walk of adaptive cells
        double l1Probes = 0.0;     //!< their L1 probes
        double observedNs = 0.0;   //!< sum of the fit's targets
        double residualNs = 0.0;   //!< sum of absolute residuals
    };

    FitSummary summarizeFit() const;

    Kind kind_;
    int64_t epochNs_;
    std::vector<CellTrace> cells_;
    std::vector<Span> spans_;
    uint64_t nextSpanId_ = 1;
    int64_t roundWallNs_ = 0;
    int64_t foldNs_ = 0;       //!< round-level work outside cells
    unsigned jobs_ = 1;
    double trainSec_ = 0.0;
    uint64_t trainTicks_ = 0;
    double trainReuse_ = 0.0;
    double timedWalkNs_ = 0.0;   //!< calibrateWalk: walk time
    double timedL1Probes_ = 0.0; //!< calibrateWalk: its L1 probes
};

/** Steady-clock nanoseconds. */
int64_t nowNs();

/** Linear-interpolated quantile of @p values (sorted copy), q in [0,1]. */
double quantile(std::vector<double> values, double q);

} // namespace bench

#endif // DORA_BENCHMARK_LEDGER_HH
