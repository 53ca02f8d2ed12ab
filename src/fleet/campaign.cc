#include "fleet/campaign.hh"

#include <algorithm>
#include <cstdio>

#include "browser/page_corpus.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "harness/comparison.hh"
#include "obs/trace.hh"

namespace dora
{

namespace
{

void
appendHexDouble(std::string &text, double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a", value);
    text += buf;
}

} // namespace

uint64_t
fleetCampaignHash(const FleetCampaignConfig &config)
{
    // "rev2": bump on any change to the cell grid layout or the unit
    // payload format — the hash names resume journals.
    // rev2 units are chunk aggregates (rev1 shipped raw measurements
    // in smaller units), so the chunk width is part of the identity;
    // the tier widths are not, since every cell's measurement is the
    // same on every tier.
    std::string text = "fleet-campaign-rev2 " +
        fleetSpecText(config.spec) + " protocol " +
        hexU64(experimentConfigHash(config.base)) + " governors";
    for (const auto &governor : config.governors)
        text += " " + governor;
    text += " chunk " + std::to_string(config.chunkDevices);
    return hashLabel(text);
}

FleetEngine::FleetEngine(FleetCampaignConfig config)
    : config_(std::move(config)),
      executor_({config_.jobs, config_.workers, config_.journalStem})
{
    if (config_.lanes != 1)
        fatal("FleetEngine: lanes must be 1, not %u", config_.lanes);
    validateFleetSpec(config_.spec);
    if (config_.governors.empty())
        fatal("FleetEngine: empty governor list");
    checkGovernorList("FleetEngine", config_.governors, config_.models);
    if (config_.chunkDevices == 0)
        config_.chunkDevices = 1;
}

size_t
FleetEngine::cellCount() const
{
    return config_.spec.devices * config_.governors.size();
}

size_t
FleetEngine::chunkCount() const
{
    const size_t per = config_.chunkDevices;
    return (config_.spec.devices + per - 1) / per;
}

RunCell
FleetEngine::makeCell(size_t cell_index, const DeviceSpec &sampled) const
{
    ExperimentConfig config = config_.base;
    config.freqScale = sampled.freqScale;
    config.voltageScale = sampled.voltageScale;
    config.thermalResistanceScale = sampled.thermalResistanceScale;
    config.ambientC = sampled.ambientC;
    const KernelSpec *kernel = sampled.corun == MemIntensity::None
        ? nullptr
        : &KernelCatalog::representative(sampled.corun);
    const FaultSchedule faults =
        FaultSchedule::combined(sampled.faultSeed);
    // The label omits the governor on purpose: it salts the page and
    // co-runner RNG streams, and every governor must see the same
    // device behaving the same way (exactly like the harness labels).
    return makeRunCell(
        config, &PageCorpus::byName(sampled.page), kernel,
        sampled.label(config_.spec.seed),
        makeNamedGovernor(
            config_.governors[cell_index % config_.governors.size()],
            config_.models),
        std::nullopt, sampled.faulty ? &faults : nullptr);
}

FleetShardAggregate
FleetEngine::runChunk(size_t chunk_index) const
{
    const size_t gcount = config_.governors.size();
    const size_t chunk_cells =
        static_cast<size_t>(config_.chunkDevices) * gcount;
    const size_t n = cellCount();
    const size_t first = chunk_index * chunk_cells;
    const size_t count = std::min(chunk_cells, n - first);
    const size_t first_device = first / gcount;
    const size_t device_count = count / gcount;  // whole devices

    // Per-cell setup amortization: sample each device ONCE per chunk
    // (spec + cohort were previously re-derived for every governor
    // cell and again at aggregation time) and reuse the spec for all
    // of its cells.
    std::vector<DeviceSpec> devices;
    std::vector<std::string> cohorts;
    devices.reserve(device_count);
    cohorts.reserve(device_count);
    for (size_t d = 0; d < device_count; ++d) {
        devices.push_back(sampleDevice(config_.spec, first_device + d));
        cohorts.push_back(devices.back().cohort());
    }

    FleetShardAggregate agg =
        FleetShardAggregate::forChunk(gcount, first);
    executor_.runCells(
        first, count,
        [&](size_t cell) {
            return makeCell(cell, devices[cell / gcount - first_device]);
        },
        [&](size_t cell, RunMeasurement &&m) {
            const size_t g = cell % gcount;
            agg.pushCell(g, cohorts[cell / gcount - first_device],
                         g == 0, m);
        });
    return agg;
}

FleetReport
FleetEngine::buildReport(const FleetShardAggregate &campaign) const
{
    const size_t gcount = config_.governors.size();
    FleetReport report;
    report.devices = config_.spec.devices;
    report.populationDigest = campaign.digest();
    report.byGovernor.resize(gcount);

    for (size_t g = 0; g < gcount; ++g) {
        const FleetShardAggregate::GovernorAcc &acc =
            campaign.governors()[g];
        FleetGovernorStats &stats = report.byGovernor[g];
        stats.governor = config_.governors[g];
        stats.devices = acc.devices;
        stats.censored = acc.censored;
        stats.deadlineMet = acc.met;
        if (acc.devices > 0)
            stats.meetRate = static_cast<double>(acc.met) /
                static_cast<double>(acc.devices);
        stats.ppw = acc.ppw;
        stats.loadTime = acc.loadTime;
        if (acc.uncensored > 0) {
            stats.meanPpw = acc.ppwSum.value() /
                static_cast<double>(acc.uncensored);
            stats.p50Ppw = stats.ppw.quantile(0.50);
            stats.p95Ppw = stats.ppw.quantile(0.95);
            stats.p99Ppw = stats.ppw.quantile(0.99);
            stats.p50LoadSec = stats.loadTime.quantile(0.50);
            stats.p95LoadSec = stats.loadTime.quantile(0.95);
            stats.p99LoadSec = stats.loadTime.quantile(0.99);
        }
    }

    report.cohorts.reserve(campaign.cohorts().size());
    for (const auto &[name, acc] : campaign.cohorts()) {
        FleetCohortStats c;
        c.cohort = name;
        c.devices = acc.devices;
        c.meanPpw.resize(gcount, 0.0);
        c.meetRate.resize(gcount, 0.0);
        c.censored.resize(gcount, 0);
        for (size_t g = 0; g < gcount; ++g) {
            if (acc.uncensored[g] > 0)
                c.meanPpw[g] = acc.ppwSum[g].value() /
                    static_cast<double>(acc.uncensored[g]);
            if (acc.devices > 0)
                c.meetRate[g] = static_cast<double>(acc.met[g]) /
                    static_cast<double>(acc.devices);
            c.censored[g] = acc.censored[g];
        }
        report.cohorts.push_back(std::move(c));
    }
    return report;
}

FleetReport
FleetEngine::run()
{
    const size_t gcount = config_.governors.size();
    CellCampaign campaign;
    campaign.name = "fleet";
    campaign.hash = fleetCampaignHash(config_);

    // Chunk aggregates fold left-to-right in chunk order (the canonical
    // fold) as the executor hands them over, so at most the chunks
    // that finished out of order are held, on every tier. A resumed
    // campaign replays its journaled chunks through the same fold.
    FleetShardAggregate folded = FleetShardAggregate::forCampaign(gcount);
    executor_.forEachUnit<FleetShardAggregate>(
        chunkCount(), [this](size_t c) { return runChunk(c); },
        [&folded](size_t, FleetShardAggregate &&chunk) {
            folded.merge(chunk);
        },
        {[](const FleetShardAggregate &chunk) { return chunk.serialize(); },
         [](std::string_view bytes, FleetShardAggregate *chunk) {
             return chunk->tryDeserialize(bytes);
         }},
        campaign);
    return buildReport(folded);
}

RunMeasurement
FleetEngine::replayDevice(size_t device_index,
                          const std::string &governor) const
{
    if (device_index >= config_.spec.devices)
        fatal("FleetEngine::replayDevice: device %zu beyond "
              "population of %zu",
              device_index, config_.spec.devices);
    const size_t gcount = config_.governors.size();
    for (size_t g = 0; g < gcount; ++g) {
        if (config_.governors[g] != governor)
            continue;
        const DeviceSpec device = sampleDevice(config_.spec, device_index);
        RunMeasurement out;
        executor_.runCells(
            device_index * gcount + g, 1,
            [&](size_t cell) { return makeCell(cell, device); },
            [&](size_t, RunMeasurement &&m) { out = std::move(m); });
        return out;
    }
    fatal("FleetEngine::replayDevice: governor '%s' is not in this "
          "campaign",
          governor.c_str());
}

std::string
fleetReportText(const FleetReport &report)
{
    std::string text = "FLEET devices=" +
        std::to_string(report.devices) +
        " digest=" + hexU64(report.populationDigest) + "\n";
    for (const FleetGovernorStats &g : report.byGovernor) {
        text += "GOV " + g.governor +
            " devices=" + std::to_string(g.devices) +
            " censored=" + std::to_string(g.censored) +
            " met=" + std::to_string(g.deadlineMet) + " meet=";
        appendHexDouble(text, g.meetRate);
        text += " mean_ppw=";
        appendHexDouble(text, g.meanPpw);
        text += " p50_ppw=";
        appendHexDouble(text, g.p50Ppw);
        text += " p95_ppw=";
        appendHexDouble(text, g.p95Ppw);
        text += " p99_ppw=";
        appendHexDouble(text, g.p99Ppw);
        text += " p50_load=";
        appendHexDouble(text, g.p50LoadSec);
        text += " p95_load=";
        appendHexDouble(text, g.p95LoadSec);
        text += " p99_load=";
        appendHexDouble(text, g.p99LoadSec);
        text += "\n";
    }
    for (const FleetCohortStats &c : report.cohorts) {
        text += "COHORT [" + c.cohort +
            "] devices=" + std::to_string(c.devices);
        for (size_t g = 0; g < c.meanPpw.size(); ++g) {
            text += " g" + std::to_string(g) + "_mean_ppw=";
            appendHexDouble(text, c.meanPpw[g]);
            text += " g" + std::to_string(g) + "_meet=";
            appendHexDouble(text, c.meetRate[g]);
            text += " g" + std::to_string(g) +
                "_censored=" + std::to_string(c.censored[g]);
        }
        text += "\n";
    }
    return text;
}

} // namespace dora
