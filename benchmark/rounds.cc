#include "rounds.hh"

#include <cmath>

#include "browser/page_corpus.hh"
#include "common/rng.hh"
#include "dora/trainer.hh"
#include "harness/comparison.hh"
#include "obs/trace.hh"

namespace bench
{

using namespace dora;

namespace
{

/** SplitMix64: the benchmark's own generator, independent of src/. */
uint64_t
splitmix(uint64_t &state)
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Seeded Fisher-Yates permutation of [0, n), keyed by @p key. */
std::vector<size_t>
permutation(size_t n, const std::string &key)
{
    std::vector<size_t> perm(n);
    for (size_t i = 0; i < n; ++i)
        perm[i] = i;
    uint64_t state = hashLabel(key);
    for (size_t i = n; i > 1; --i)
        std::swap(perm[i - 1], perm[splitmix(state) % i]);
    return perm;
}

std::string
roundKey(Kind kind, uint64_t seed, size_t slot, const std::string &part)
{
    return std::string("bench/") + kindName(kind) + "/seed=" +
        std::to_string(seed) + "/" + std::to_string(slot) + "/" +
        part;
}

constexpr MemIntensity kClasses[] = {MemIntensity::Low,
                                     MemIntensity::Medium,
                                     MemIntensity::High};

/** Ambient rise per pass over the grid, so passes never repeat a cell. */
constexpr double kAmbientStepC = 2.0;

/** Seeds draw the room temperature from 25 degC +- this. */
constexpr double kAmbientSpreadC = 3.0;

/** paper-grid runs one offline-opt sweep every this many rounds. */
constexpr size_t kOfflineEvery = 3;

/** A fleet-dora cycle rolls policy out to this many devices. */
constexpr size_t kFleetDevicesPerCycle = 96;

} // namespace

bool
parseKind(const std::string &name, Kind *kind)
{
    for (Kind k : {Kind::PaperGrid, Kind::FleetDora, Kind::ExactSweep})
        if (name == kindName(k)) {
            *kind = k;
            return true;
        }
    return false;
}

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::PaperGrid:
        return "paper-grid";
      case Kind::FleetDora:
        return "fleet-dora";
      case Kind::ExactSweep:
        return "exact-sweep";
    }
    return "?";
}

bool
needsBundle(Kind kind)
{
    return kind != Kind::ExactSweep;
}

size_t
roundsPerCycle(Kind kind, const RoundShape &shape)
{
    const size_t pages = PageCorpus::all().size();
    switch (kind) {
      case Kind::PaperGrid:
        return pages / shape.gridPerClass;
      case Kind::FleetDora:
        return kFleetDevicesPerCycle / shape.fleetDevices;
      case Kind::ExactSweep:
        return pages / 3;
    }
    return 1;
}

Round
planRound(Kind kind, uint64_t seed, size_t index, const RoundShape &shape)
{
    Round round;
    round.kind = kind;
    const std::vector<WebPage> &pages = PageCorpus::all();

    if (kind == Kind::FleetDora) {
        FleetCampaignConfig &fleet = round.fleet;
        fleet.spec.seed = hashLabel(roundKey(kind, seed, index, "fleet"));
        fleet.spec.devices = shape.fleetDevices;
        fleet.spec.faultIncidence = shape.faultIncidence;
        fleet.governors = {"DORA", "ondemand", "interactive"};
        fleet.base = round.config;
        fleet.workers = 0;
        fleet.lanes = 1;
        fleet.chunkDevices = shape.fleetChunkDevices;
        return round;
    }

    // A cycle visits every page once per memory class (paper-grid) or
    // once in all (exact-sweep), so a run of whole cycles has the same
    // page mix at every seed; the seed decides the grouping, the
    // offline-opt pages (one per class per paper-grid cycle) and the
    // room temperature.
    const size_t cycle = index / roundsPerCycle(kind, shape);
    const size_t pos = index % roundsPerCycle(kind, shape);
    uint64_t state = hashLabel(roundKey(kind, seed, 0, "ambient"));
    const double unit = static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
    round.config.ambientC += kAmbientSpreadC * (2.0 * unit - 1.0) +
        kAmbientStepC * static_cast<double>(cycle);

    if (kind == Kind::ExactSweep) {
        const std::vector<size_t> perm = permutation(
            pages.size(), roundKey(kind, seed, cycle, "pages"));
        for (size_t k = 0; k < 3; ++k)
            round.offline.push_back(WorkloadSets::combo(
                pages[perm[pos * 3 + k]], kClasses[k]));
        return round;
    }

    for (size_t k = 0; k < 3; ++k) {
        const std::vector<size_t> perm = permutation(
            pages.size(),
            roundKey(kind, seed, cycle, "class" + std::to_string(k)));
        for (size_t j = 0; j < shape.gridPerClass; ++j)
            round.grid.push_back(WorkloadSets::combo(
                pages[perm[pos * shape.gridPerClass + j]], kClasses[k]));
    }
    if (pos % kOfflineEvery == 0) {
        const size_t slot = pos / kOfflineEvery;
        const std::vector<size_t> perm = permutation(
            pages.size(), roundKey(kind, seed, cycle, "offline"));
        round.offline.push_back(WorkloadSets::combo(
            pages[perm[slot % pages.size()]], kClasses[slot % 3]));
    }
    return round;
}

uint64_t
chainDigest(uint64_t chain, uint64_t link)
{
    return hashLabel(hexU64(chain) + ":" + hexU64(link));
}

uint64_t
digestSeed(Kind kind)
{
    return hashLabel(std::string("bench-round:") + kindName(kind));
}

bool
measurementSane(const RunMeasurement &m, const ExperimentConfig &config)
{
    for (double x : {m.loadTimeSec, m.energyJ, m.meanPowerW, m.ppw,
                     m.meanL2Mpki, m.meanCorunUtil, m.meanTempC,
                     m.peakTempC, m.meanFreqMhz})
        if (!std::isfinite(x))
            return false;
    for (double r : m.freqResidencySec)
        if (!std::isfinite(r) || r < 0.0)
            return false;
    // Every benchmark cell loads a page, so the censoring flag must
    // mirror page completion and only a finished page scores PPW.
    const bool ppw_ok = m.censored ? m.ppw == 0.0 : m.ppw > 0.0;
    return m.loadTimeSec > 0.0 &&
        m.loadTimeSec <= config.maxLoadSec + 2.0 * config.dtSec &&
        m.energyJ > 0.0 && m.meanPowerW > 0.0 && m.meanFreqMhz > 0.0 &&
        m.meanL2Mpki >= 0.0 && m.meanCorunUtil >= 0.0 &&
        m.peakTempC + 1e-9 >= m.meanTempC &&
        m.censored == !m.pageFinished && ppw_ok &&
        (!m.meetsDeadline ||
         m.loadTimeSec <= config.deadlineSec + 1e-9) &&
        !m.decisions.empty();
}

namespace
{

/** Sanity of a fleet report: a corrupt cell shows up in its governor. */
size_t
fleetFailures(const FleetReport &report, const FleetCampaignConfig &config)
{
    size_t failed = 0;
    for (const FleetGovernorStats &g : report.byGovernor) {
        const bool sane = g.devices == config.spec.devices &&
            g.censored + g.deadlineMet <= g.devices &&
            std::isfinite(g.meanPpw) && std::isfinite(g.p99Ppw) &&
            std::isfinite(g.p99LoadSec) &&
            (g.censored == g.devices || g.meanPpw > 0.0);
        if (!sane)
            failed += config.spec.devices;
    }
    return failed;
}

} // namespace

RoundResult
runRound(const Round &round, const RunEnv &env)
{
    RoundResult out;
    uint64_t chain = digestSeed(round.kind);

    if (round.kind == Kind::FleetDora) {
        FleetCampaignConfig config = round.fleet;
        config.models = env.models;
        config.jobs = env.jobs;
        FleetEngine engine(config);
        const FleetReport report = engine.run();
        out.digest = chainDigest(chain, report.populationDigest);
        out.cells = engine.cellCount();
        out.failed = fleetFailures(report, config);
        return out;
    }

    ComparisonHarness harness(round.config, env.models, env.jobs);
    harness.setLanes(1);
    if (!round.grid.empty()) {
        out.records = harness.runAll(round.grid);
        for (const ComparisonRecord &record : out.records)
            for (const std::string &g :
                 ComparisonHarness::paperGovernors()) {
                const RunMeasurement &m = record.measurement(g);
                chain = chainDigest(chain, runMeasurementDigest(m));
                ++out.cells;
                if (!measurementSane(m, round.config))
                    ++out.failed;
            }
    }
    const std::vector<RunMeasurement> winners =
        harness.offlineOptMany(round.offline);
    out.cells += round.offline.size() * harness.runner().freqTable().size();
    for (const RunMeasurement &m : winners) {
        chain = chainDigest(chain, runMeasurementDigest(m));
        if (!measurementSane(m, round.config))
            ++out.failed;
    }
    out.digest = chain;
    return out;
}

ModelBundle
trainBundle(unsigned jobs, BundleSize size)
{
    TrainerConfig config;
    config.jobs = jobs;
    config.lanes = 1;
    if (size == BundleSize::Tiny) {
        config.chamberAmbientsC = {15.0, 35.0, 55.0};
        config.maxTrainingWorkloads = 6;
        config.trainingFreqIndices = {0, 4, 9, 13};
    } else if (size == BundleSize::Reduced) {
        config.chamberAmbientsC = {15.0, 35.0, 55.0};
        config.maxTrainingWorkloads = 18;
        config.trainingFreqIndices = {0, 1, 4, 7, 9, 11, 13};
    }
    return Trainer(config).train();
}

} // namespace bench
