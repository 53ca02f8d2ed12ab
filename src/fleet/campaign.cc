#include "fleet/campaign.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "browser/page_corpus.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
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

bool
writeAllFd(int fd, const char *p, size_t n)
{
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

/** Whole-file read; false when the file is absent or unreadable. */
bool
readFile(const std::string &path, std::string *out)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    char buf[64 * 1024];
    for (;;) {
        const ssize_t r = ::read(fd, buf, sizeof(buf));
        if (r < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            return false;
        }
        if (r == 0)
            break;
        out->append(buf, static_cast<size_t>(r));
    }
    ::close(fd);
    return true;
}

/** Temp + fsync + rename: a kill leaves the old file or the new one. */
bool
writeFileAtomic(const std::string &path, std::string_view bytes)
{
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(),
                          O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                          0644);
    if (fd < 0)
        return false;
    if (!writeAllFd(fd, bytes.data(), bytes.size()) ||
        ::fsync(fd) != 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

/**
 * Campaign aggregate checkpoint: the absorbed-prefix FleetShardAggregate
 * plus enough identity (campaign hash, chunk geometry) to refuse a
 * checkpoint from any other campaign. Versioned snapshot section.
 */
std::string
checkpointBytes(uint64_t hash, uint64_t chunk_count,
                uint32_t chunk_devices, uint64_t absorbed,
                const FleetShardAggregate &campaign)
{
    SnapshotWriter w;
    w.beginSection("fckp", 1);
    w.putU64(hash);
    w.putU64(chunk_count);
    w.putU32(chunk_devices);
    w.putU64(absorbed);
    w.putString(campaign.serialize());
    return w.finish();
}

bool
tryLoadCheckpoint(const std::string &path, uint64_t hash,
                  uint64_t chunk_count, uint32_t chunk_devices,
                  uint64_t device_total, size_t gcount,
                  uint64_t *absorbed, FleetShardAggregate *campaign)
{
    std::string bytes;
    if (!readFile(path, &bytes))
        return false;  // no checkpoint yet: a fresh campaign
    SnapshotReader r(bytes);
    uint64_t h = 0, chunks = 0, a = 0;
    uint32_t cd = 0;
    std::string agg;
    if (!r.checksumOk() || !r.beginSection("fckp", 1) ||
        !r.getU64(&h) || !r.getU64(&chunks) || !r.getU32(&cd) ||
        !r.getU64(&a) || !r.getString(&agg) || !r.atEnd() ||
        h != hash || chunks != chunk_count || cd != chunk_devices ||
        a > chunk_count) {
        warn("fleet: ignoring checkpoint %s (different campaign, "
             "torn write, or newer format); the journal still covers "
             "completed chunks",
             path.c_str());
        return false;
    }
    FleetShardAggregate loaded;
    const uint64_t expect_cells =
        std::min<uint64_t>(a * chunk_devices, device_total) * gcount;
    if (!loaded.tryDeserialize(agg) || loaded.firstCell() != 0 ||
        loaded.cellCount() != expect_cells) {
        warn("fleet: ignoring checkpoint %s (aggregate does not match "
             "the stated chunk prefix)",
             path.c_str());
        return false;
    }
    *absorbed = a;
    *campaign = std::move(loaded);
    return true;
}

} // namespace

uint64_t
fleetCampaignHash(const FleetCampaignConfig &config)
{
    // "rev2": bump on any change to the cell grid layout or the unit
    // payload format — the hash names resume journals and checkpoints.
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
    if (config_.chunkDevices == 0)
        config_.chunkDevices = 1;
    if (config_.checkpointIntervalChunks == 0)
        config_.checkpointIntervalChunks = 1;
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

std::vector<RunMeasurement>
FleetEngine::runAllCells() const
{
    const size_t gcount = config_.governors.size();
    CellCampaign campaign;
    campaign.name = "fleet";
    campaign.hash = fleetCampaignHash(config_);
    return executor_.measure(
        cellCount(),
        [&](size_t cell) {
            return makeCell(cell, sampleDevice(config_.spec, cell / gcount));
        },
        campaign);
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
    const uint64_t chunks = chunkCount();
    CellCampaign campaign;
    campaign.name = "fleet";
    campaign.hash = fleetCampaignHash(config_);

    // Chunk aggregates fold left-to-right in chunk order (the canonical
    // fold) as the executor hands them over, so at most the chunks
    // that finished out of order are held, on every tier.
    FleetShardAggregate folded = FleetShardAggregate::forCampaign(gcount);
    uint64_t absorbed = 0;    // chunks folded into `folded`
    uint64_t durable = 0;     // chunks durable in the checkpoint
    uint64_t since_ckpt = 0;  // chunks folded since the last write
    std::string ckpt_path;
    if (config_.workers > 0 && !config_.journalStem.empty()) {
        ckpt_path = config_.journalStem + "." + hexU64(campaign.hash) +
            ".ckpt";
        if (tryLoadCheckpoint(ckpt_path, campaign.hash, chunks,
                              config_.chunkDevices, config_.spec.devices,
                              gcount, &absorbed, &folded)) {
            durable = absorbed;
            inform("fleet: checkpoint %s covers %llu/%llu chunks; "
                   "resuming past them",
                   ckpt_path.c_str(),
                   static_cast<unsigned long long>(absorbed),
                   static_cast<unsigned long long>(chunks));
        }
    }
    campaign.durablePrefix = absorbed;
    // Checkpoint the folded prefix every checkpointIntervalChunks; the
    // journal may then drop every record below it.
    campaign.durableFloor = [&]() -> uint64_t {
        if (!ckpt_path.empty() &&
            since_ckpt >= config_.checkpointIntervalChunks) {
            if (writeFileAtomic(ckpt_path,
                                checkpointBytes(campaign.hash, chunks,
                                                config_.chunkDevices,
                                                absorbed, folded)))
                durable = absorbed;
            else
                warn("fleet: checkpoint write to %s failed; the "
                     "journal keeps the full history",
                     ckpt_path.c_str());
            since_ckpt = 0;
        }
        return durable;
    };

    executor_.forEachUnit<FleetShardAggregate>(
        chunks, [this](size_t c) { return runChunk(c); },
        [&](size_t, FleetShardAggregate &&chunk) {
            folded.merge(chunk);
            ++absorbed;
            ++since_ckpt;
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
