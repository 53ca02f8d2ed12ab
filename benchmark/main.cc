/**
 * @file
 * dora_benchmark: one workload of the repository benchmark per
 * invocation, reported as a single `BENCH {json}` line on stdout.
 *
 *   dora_benchmark --workload W --seed S --seconds T
 *                  [--traced] [--full-bundle] [--out DIR]
 *   dora_benchmark --self-test
 *
 * A run executes T seconds' worth of whole cycles of rounds (see
 * nominalCycleSec). Untraced (the end-to-end numbers): set up several
 * times and keep the median, run the rounds, then replay one
 * seed-chosen round on the traced path and require the same digest.
 * Traced (the ledger): set up once, run the rounds untraced and then
 * traced, require equal digests round by round, and report the
 * per-layer metrics. The golden digests of seeds 1 and 2 are checked
 * by bench.py, which owns golden.json. --full-bundle trains the default
 * TrainerConfig instead of the reduced one (set-up runs once), so
 * paper_err_pp can be read on the model users train; its digests are
 * not the golden ones.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "browser/page_corpus.hh"
#include "common/exact_ticks.hh"
#include "common/logging.hh"
#include "exec/thread_pool.hh"
#include "ledger.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "rounds.hh"

using namespace bench;
using dora::MetricsRegistry;
using dora::ModelBundle;
using dora::WorkloadSets;

namespace
{

/**
 * Set-ups per untraced run; setup_s is their median. Without a model
 * set-up is only the warm-up, a fraction of a second, so it is
 * repeated more to keep its median steady.
 */
int
setupRepeats(Kind kind, BundleSize bundle)
{
    if (bundle == BundleSize::Full)
        return 1;
    return needsBundle(kind) ? 3 : 9;
}

/** Largest share of traced time the ledger may leave unattributed. */
constexpr double kMaxUnattributed = 0.05;

/** The paper's headline: DORA's mean PPW gain over interactive, %. */
constexpr double kPaperDoraGainPct = 16.0;

/**
 * Wall of one cycle (roundsPerCycle) at jobs=2 on a 4-vCPU Intel Xeon
 * KVM guest. A run executes round(T / nominal) whole cycles, at least
 * one: a fixed amount of work for a given T, so every count it reports
 * repeats exactly for the same seed, and whole cycles keep the page
 * mix, and so the cost, the same at every seed.
 */
double
nominalCycleSec(Kind kind)
{
    switch (kind) {
      case Kind::PaperGrid:
        return 15.5;
      case Kind::FleetDora:
        return 15.6;
      case Kind::ExactSweep:
        return 16.8;
    }
    return 15.0;
}

double
secondsSince(int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/**
 * Peak resident memory of this process image. VmHWM, not ru_maxrss:
 * Linux carries ru_maxrss across exec, so a process started by a
 * larger parent (bench.py) would report the parent's peak.
 */
double
peakRssMb()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof(line), status))
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    std::fclose(status);
    return kb / 1024.0;
}

/** Minimal JSON object writer; keys are plain ASCII identifiers. */
class Json
{
  public:
    Json &num(const std::string &key, double value)
    {
        char buf[64];
        if (std::isfinite(value))
            std::snprintf(buf, sizeof(buf), "%.17g", value);
        else
            std::snprintf(buf, sizeof(buf), "null");
        return raw(key, buf);
    }

    Json &str(const std::string &key, const std::string &value)
    {
        return raw(key, "\"" + value + "\"");
    }

    Json &boolean(const std::string &key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }

    Json &raw(const std::string &key, const std::string &value)
    {
        text_ += (text_.empty() ? "{" : ",") + ("\"" + key + "\":") + value;
        return *this;
    }

    std::string done() const { return text_.empty() ? "{}" : text_ + "}"; }

  private:
    std::string text_;
};

std::string
metricsJson(const std::map<std::string, double> &metrics)
{
    Json j;
    for (const auto &[name, value] : metrics)
        j.num(name, value);
    return j.done();
}

std::string
digestList(const std::vector<uint64_t> &digests)
{
    std::string out = "[";
    for (size_t i = 0; i < digests.size(); ++i)
        out += (i ? ",\"" : "\"") + dora::hexU64(digests[i]) + "\"";
    return out + "]";
}

struct Options
{
    Kind kind = Kind::PaperGrid;
    uint64_t seed = 1;
    double seconds = 15.0;
    /** Worker threads for training, harness and fleet (<= nproc). */
    unsigned jobs = std::min(2u, dora::hardwareJobs());
    bool traced = false;
    bool selfTest = false;
    BundleSize bundle = BundleSize::Reduced;
    std::string outDir = "benchmark/out";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "dora_benchmark: %s\n"
                 "usage: dora_benchmark --workload "
                 "paper-grid|fleet-dora|exact-sweep --seed S "
                 "--seconds T [--traced] [--full-bundle] "
                 "[--out DIR]\n"
                 "       dora_benchmark --self-test\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        const auto number = [&](double lo) {
            const std::string text = value();
            char *end = nullptr;
            const double v = std::strtod(text.c_str(), &end);
            if (end == text.c_str() || *end != '\0' || !(v >= lo))
                usage(("bad value for " + arg + ": " + text).c_str());
            return v;
        };
        if (arg == "--workload") {
            if (!parseKind(value(), &o.kind))
                usage("unknown workload");
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = static_cast<uint64_t>(number(0.0));
        } else if (arg == "--seconds") {
            o.seconds = number(0.001);
        } else if (arg == "--out") {
            o.outDir = value();
        } else if (arg == "--traced") {
            o.traced = true;
        } else if (arg == "--full-bundle") {
            o.bundle = BundleSize::Full;
        } else if (arg == "--self-test") {
            o.selfTest = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload && !o.selfTest)
        usage("--workload is required");
    return o;
}

/** One warm-up cell per memory-intensity class, as set-up's last step. */
void
warmUp()
{
    dora::ExperimentRunner runner;
    const dora::WebPage &page = dora::PageCorpus::all().front();
    for (dora::MemIntensity cls :
         {dora::MemIntensity::Low, dora::MemIntensity::Medium,
          dora::MemIntensity::High})
        runner.runAtFrequency(WorkloadSets::combo(page, cls),
                              runner.freqTable().size() / 2);
}

/** One set-up: cold bundle training (when needed) plus warm-up. */
struct Setup
{
    double seconds = 0.0;
    std::shared_ptr<const ModelBundle> models;
};

Setup
setUp(Kind kind, unsigned jobs, BundleSize bundle)
{
    const int64_t t0 = nowNs();
    Setup s;
    if (needsBundle(kind))
        s.models =
            std::make_shared<const ModelBundle>(trainBundle(jobs, bundle));
    warmUp();
    s.seconds = secondsSince(t0);
    return s;
}

/**
 * DORA's mean normalized PPW gain over interactive across every runAll
 * record of the run, as |gain - paper| in percentage points.
 */
double
paperErrorPp(const std::vector<dora::ComparisonRecord> &records)
{
    const double gain = dora::meanNormalizedPpw(records, "DORA");
    return std::abs(100.0 * (gain - 1.0) - kPaperDoraGainPct);
}

uint64_t
simTicks()
{
    return MetricsRegistry::global().counter("sim.ticks").value();
}

/** Rounds a run executes, from --seconds. */
size_t
roundCount(const Options &o)
{
    const long cycles = std::lround(o.seconds / nominalCycleSec(o.kind));
    return static_cast<size_t>(std::max(1L, cycles)) *
        roundsPerCycle(o.kind);
}

/** The timed phase: every round of the run, untraced. */
struct Timed
{
    std::vector<uint64_t> digests;
    std::vector<double> roundWalls;
    std::vector<dora::ComparisonRecord> records;
    size_t cells = 0;
    size_t failed = 0;
    double wall = 0.0;
    uint64_t ticks = 0;
};

Timed
runTimed(const Options &o, const RunEnv &env)
{
    Timed t;
    const uint64_t ticks0 = simTicks();
    const int64_t t0 = nowNs();
    for (size_t r = 0; r < roundCount(o); ++r) {
        const int64_t r0 = nowNs();
        RoundResult res = runRound(planRound(o.kind, o.seed, r), env);
        t.roundWalls.push_back(secondsSince(r0));
        t.digests.push_back(res.digest);
        t.cells += res.cells;
        t.failed += res.failed;
        for (auto &rec : res.records)
            t.records.push_back(std::move(rec));
    }
    t.wall = secondsSince(t0);
    t.ticks = simTicks() - ticks0;
    return t;
}

std::string
numberList(const std::vector<double> &values)
{
    std::string out = "[";
    char buf[32];
    for (size_t i = 0; i < values.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.6g", i ? "," : "", values[i]);
        out += buf;
    }
    return out + "]";
}

int
runUntraced(const Options &o)
{
    std::vector<double> setups;
    std::shared_ptr<const ModelBundle> models;
    bool setup_identical = true;
    for (int i = 0; i < setupRepeats(o.kind, o.bundle); ++i) {
        Setup s = setUp(o.kind, o.jobs, o.bundle);
        setups.push_back(s.seconds);
        if (models && s.models &&
            models->serialize() != s.models->serialize())
            setup_identical = false;
        models = s.models;
    }
    const RunEnv env{o.jobs, models};
    const Timed t = runTimed(o, env);

    // Cross-path check for any seed: one seed-chosen round replayed
    // from public constructors must reproduce its digest.
    const size_t verify =
        dora::hashLabel("verify:" + std::to_string(o.seed)) %
        t.digests.size();
    Ledger verifier(o.kind);
    const RoundResult replay =
        verifier.runRound(planRound(o.kind, o.seed, verify), env);
    const bool verified = replay.digest == t.digests[verify];

    std::map<std::string, double> metrics;
    metrics["setup_s"] = quantile(setups, 0.5);
    metrics["cells_per_s"] = static_cast<double>(t.cells) / t.wall;
    metrics["sim_ticks_per_s"] = static_cast<double>(t.ticks) / t.wall;
    metrics["peak_rss_mb"] = peakRssMb();

    Json j;
    j.str("workload", kindName(o.kind))
        .num("seed", static_cast<double>(o.seed))
        .str("mode", "untraced")
        .num("jobs", o.jobs)
        .num("rounds", static_cast<double>(t.digests.size()))
        .num("cells", static_cast<double>(t.cells))
        .num("failed", static_cast<double>(t.failed))
        .num("timed_wall_s", t.wall)
        .raw("round_wall_s", numberList(t.roundWalls))
        .raw("setup_runs_s", numberList(setups))
        .raw("round_digests", digestList(t.digests))
        .num("verified_round", static_cast<double>(verify))
        .boolean("verify_ok", verified)
        .boolean("setup_identical", setup_identical)
        .raw("metrics", metricsJson(metrics));
    if (o.kind == Kind::PaperGrid)
        j.num("paper_err_pp", paperErrorPp(t.records));
    std::printf("BENCH %s\n", j.done().c_str());
    return t.failed == 0 && verified && setup_identical ? 0 : 1;
}

int
runTraced(const Options &o)
{
    MetricsRegistry &reg = MetricsRegistry::global();
    const uint64_t walks0 = reg.counter("mem.sample.walks").value();
    const uint64_t reused0 = reg.counter("mem.sample.reused").value();
    const uint64_t ticks0 = simTicks();
    const Setup s = setUp(o.kind, o.jobs, o.bundle);
    const double walks = static_cast<double>(
        reg.counter("mem.sample.walks").value() - walks0);
    const double reused = static_cast<double>(
        reg.counter("mem.sample.reused").value() - reused0);
    const RunEnv env{o.jobs, s.models};

    Ledger ledger(o.kind);
    if (needsBundle(o.kind))
        ledger.noteTraining(
            s.seconds, simTicks() - ticks0,
            walks + reused > 0.0 ? reused / (walks + reused) : 0.0);

    const Timed t = runTimed(o, env);
    size_t failed = t.failed;
    size_t mismatched = 0;
    for (size_t r = 0; r < t.digests.size(); ++r) {
        const Round round = planRound(o.kind, o.seed, r);
        const RoundResult res = ledger.runRound(round, env);
        failed += res.failed;
        if (res.digest != t.digests[r])
            ++mismatched;
        // Round by round, so host drift hits the fit and its check alike.
        if (o.kind != Kind::ExactSweep)
            ledger.calibrateWalk(round, env);
    }
    const std::string invalid = ledger.invalidReason();

    std::filesystem::create_directories(o.outDir);
    const std::string spans = o.outDir + "/spans-" + kindName(o.kind) +
        "-seed" + std::to_string(o.seed) + ".jsonl";
    const bool wrote = ledger.writeSpans(spans);

    Json j;
    j.str("workload", kindName(o.kind))
        .num("seed", static_cast<double>(o.seed))
        .str("mode", "traced")
        .num("jobs", o.jobs)
        .num("rounds", static_cast<double>(t.digests.size()))
        .num("cells", static_cast<double>(2 * t.cells))  // both passes
        .num("failed", static_cast<double>(failed))
        .num("timed_wall_s", t.wall)
        .raw("round_digests", digestList(t.digests))
        .num("digest_mismatches", static_cast<double>(mismatched))
        .str("ledger_problem", invalid)
        .str("spans", spans)
        .raw("ledger", metricsJson(ledger.metrics(t.wall)))
        .raw("ledger_extra", metricsJson(ledger.extras()));
    std::printf("BENCH %s\n", j.done().c_str());
    return failed == 0 && mismatched == 0 && invalid.empty() && wrote ? 0
                                                                      : 1;
}

bool
check(const char *name, bool ok, const std::string &detail = "")
{
    std::printf("SELFTEST %-34s %s %s\n", name, ok ? "PASS" : "FAIL",
                detail.c_str());
    return ok;
}

/** Least squares must recover known per-term costs from noisy quanta. */
bool
selfTestFit()
{
    const QuantumFit::Terms truth = {900.0, 300.0, 20.0, 60.0};
    QuantumFit fit;
    uint64_t state = 12345;
    const auto draw = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>(state >> 33) / 2147483648.0;
    };
    for (int i = 0; i < 4000; ++i) {
        const double ticks = 1.0 + std::floor(200.0 * draw());
        const double l1 = std::floor(ticks * 120.0 * draw());
        const double l2 = std::floor(l1 * 0.3 * draw());
        const QuantumFit::Terms x = {1.0, ticks, l1, l2};
        double ns = 0.0;
        for (int t = 0; t < QuantumFit::kTerms; ++t)
            ns += truth[t] * x[t];
        fit.add(x, ns * (1.0 + 0.02 * (draw() - 0.5)));
    }
    const QuantumFit::Terms got = fit.solve();
    std::ostringstream detail;
    bool ok = true;
    for (int t = 0; t < QuantumFit::kTerms; ++t) {
        detail << got[t] << "(" << truth[t] << ") ";
        ok &= std::abs(got[t] / truth[t] - 1.0) < 0.05;
    }
    return check("least-squares attribution", ok, detail.str());
}

/** The fit rule must pass a sound fit and reject unsound ones. */
bool
selfTestFitRule()
{
    const QuantumFit::Terms sound = {900.0, 300.0, 20.0, 3.0};
    const QuantumFit::Terms negative = {900.0, 300.0, 26.0, -5.0};
    const bool ok = walkFitProblem(sound, 24.0, 23.0).empty() &&
        !walkFitProblem(negative, 24.0, 23.0).empty() &&
        !walkFitProblem(sound, 31.0, 23.0).empty() &&
        !walkFitProblem(sound, 16.0, 23.0).empty() &&
        !walkFitProblem(sound, 24.0, 0.0).empty();
    return check("walk fit rule", ok);
}

/** A tiny round of @p kind: traced and untraced digests must agree. */
bool
selfTestRound(Kind kind, const RunEnv &env)
{
    RoundShape tiny;
    tiny.gridPerClass = 1;
    tiny.fleetDevices = 3;
    tiny.fleetChunkDevices = 2;
    tiny.faultIncidence = 0.5;
    const Round round = planRound(kind, 7, 0, tiny);
    const RoundResult plain = runRound(round, env);
    Ledger ledger(kind);
    const RoundResult traced = ledger.runRound(round, env);
    if (kind != Kind::ExactSweep)
        ledger.calibrateWalk(round, env);
    const std::string invalid = ledger.invalidReason();
    const std::map<std::string, double> lines = ledger.metrics(0.0);
    const double unattributed = lines.at("runner.unattributed_share");
    bool ok = check(
        (std::string(kindName(kind)) + " traced digest").c_str(),
        plain.digest == traced.digest && plain.cells == traced.cells &&
            plain.failed == 0 && traced.failed == 0,
        dora::hexU64(plain.digest) + " vs " + dora::hexU64(traced.digest));
    ok &= check((std::string(kindName(kind)) + " attribution").c_str(),
                invalid.empty() && unattributed <= kMaxUnattributed,
                "unattributed=" + std::to_string(unattributed) +
                    " walk_ns_per_l1_probe=" +
                    std::to_string(lines.at("mem.walk_ns_per_l1_probe")) +
                    (kind == Kind::ExactSweep
                         ? ""
                         : " timed=" +
                             std::to_string(ledger.extras().at(
                                 "ledger.timed_walk_ns_per_l1_probe"))) +
                    (invalid.empty() ? "" : " " + invalid));
    return ok;
}

int
runSelfTest(const Options &o)
{
    bool ok = selfTestFit();
    ok &= selfTestFitRule();
    dora::setExactTicksMode(false);
    const RunEnv env{o.jobs, std::make_shared<const ModelBundle>(
                                 trainBundle(o.jobs, BundleSize::Tiny))};
    ok &= selfTestRound(Kind::PaperGrid, env);
    ok &= selfTestRound(Kind::FleetDora, env);
    dora::setExactTicksMode(true);
    ok &= selfTestRound(Kind::ExactSweep, RunEnv{o.jobs, nullptr});
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    dora::setLogLevel(dora::LogLevel::Quiet);
    if (o.selfTest)
        return runSelfTest(o);
    // Exact-ticks mode is process-wide and read at construction, so it
    // is fixed before anything is built; the adaptive workloads pin it
    // off against a stray DORA_EXACT_TICKS in the environment.
    dora::setExactTicksMode(o.kind == Kind::ExactSweep);
    return o.traced ? runTraced(o) : runUntraced(o);
}
