#include "mem/miss_rate_estimator.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "mem/address_stream.hh"

namespace dora
{

namespace
{

/**
 * Agreement test for one pair of rates measured as @p a and @p b
 * successes over @p n Bernoulli trials each: the difference must be
 * within z sigma of the pooled binomial noise plus a small absolute
 * floor. @p floor_tol guards the near-zero regime where the normal
 * approximation collapses.
 */
bool
rateWithinNoise(double a, double b, double n, double floor_tol)
{
    constexpr double kZ = 2.5;
    const double p = std::clamp(0.5 * (a + b), 1e-6, 1.0 - 1e-6);
    const double sigma = std::sqrt(p * (1.0 - p) * 2.0 / n);
    return std::abs(a - b) <= floor_tol + kZ * sigma;
}

} // namespace

MissRateEstimator::MissRateEstimator(const MissRateEstimatorConfig &config,
                                     bool exact)
    : config_(config), enabled_(!exact)
{
    if (config.refreshTicks == 0)
        fatal("MissRateEstimator: refreshTicks must be >= 1");
    if (config.convergeTicks == 0)
        fatal("MissRateEstimator: convergeTicks must be >= 1");
    if (config.maxEntries == 0)
        fatal("MissRateEstimator: maxEntries must be >= 1");
    if (config.warmCoverage <= 0.0)
        fatal("MissRateEstimator: warmCoverage must be > 0");
    entries_.reserve(config.maxEntries);
}

void
MissRateEstimator::setL2Lines(uint64_t lines)
{
    if (lines == 0)
        fatal("MissRateEstimator: L2 line count must be >= 1");
    l2Lines_ = lines;
}

bool
MissRateEstimator::ratesAgree(const std::vector<MemSampleResult> &a,
                              const std::vector<MemSampleResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t c = 0; c < a.size(); ++c) {
        const MemSampleResult &ra = a[c];
        const MemSampleResult &rb = b[c];
        if ((ra.samplesIssued == 0) != (rb.samplesIssued == 0))
            return false;
        if (ra.samplesIssued == 0)
            continue;
        const double n = std::min(ra.samplesIssued, rb.samplesIssued);
        // L1 miss rate: per-sample Bernoulli over the full walk.
        if (!rateWithinNoise(ra.l1MissRate, rb.l1MissRate, n, 0.005))
            return false;
        // L2 misses per *sample* (l1 x l2local): the quantity that
        // feeds MPKI and DRAM demand, and the one whose slow decay
        // marks an still-warming cache. Tight floor: MPKI class bands
        // sit at miss-per-access levels of ~1e-3.
        const double qa = ra.l1MissRate * ra.l2LocalMissRate;
        const double qb = rb.l1MissRate * rb.l2LocalMissRate;
        if (!rateWithinNoise(qa, qb, n, 0.0005))
            return false;
    }
    return true;
}

void
MissRateEstimator::beginConvergence(
    Entry &entry, const std::vector<MemSampleResult> &results)
{
    entry.converged = false;
    entry.walks = 1;
    entry.checkWindow = std::max<uint32_t>(2, config_.convergeTicks);
    entry.nextCheckWalks = entry.checkWindow;
    entry.checkpoint = results;
    entry.results = results;
    entry.reusesSinceSample = 0;
}

bool
MissRateEstimator::creditWalkProbes(
    const std::vector<MemSampleRequest> &requests)
{
    // Warmth belongs to the cache contents a stream has accumulated, so
    // it is keyed on (streamId, generation) alone — not on the phase
    // signature. An OPP switch renames the phase but not the stream, so
    // the new phase starts warm and converges via the statistical test.
    constexpr size_t kMaxTracked = 64;
    bool all_warm = true;
    for (const MemSampleRequest &req : requests) {
        if (req.samples == 0 || req.stream == nullptr)
            continue;
        CoreKey key;
        key.streamId = req.stream->streamId();
        key.generation = req.stream->generation();
        StreamWarmth *slot = nullptr;
        for (StreamWarmth &w : warmth_) {
            if (w.key == key) {
                slot = &w;
                break;
            }
        }
        if (slot == nullptr) {
            if (warmth_.size() >= kMaxTracked) {
                size_t victim = 0;
                for (size_t i = 1; i < warmth_.size(); ++i)
                    if (warmth_[i].lastUseTick <
                        warmth_[victim].lastUseTick)
                        victim = i;
                warmth_.erase(warmth_.begin() +
                              static_cast<std::ptrdiff_t>(victim));
            }
            StreamWarmth w;
            w.key = key;
            // Cold region: the lines outside the quickly-warmed hot
            // subset that can actually stay cached (bounded by the L2).
            // Probes land there with ~(1 - hotFraction) probability, so
            // covering it takes ~lines / coldFraction probes; kappa
            // scales the coupon-collector slack.
            const AddressStreamSpec &spec = req.stream->spec();
            const double warmable = static_cast<double>(
                std::min(req.stream->wsLines(), l2Lines_));
            const double cold_frac =
                std::max(1.0 - spec.hotFraction, 0.05);
            w.targetProbes =
                config_.warmCoverage * warmable / cold_frac;
            warmth_.push_back(w);
            slot = &warmth_.back();
        }
        slot->probes += static_cast<double>(req.samples);
        slot->lastUseTick = tickSerial_;
        if (slot->probes < slot->targetProbes)
            all_warm = false;
    }
    return all_warm;
}

bool
MissRateEstimator::beginTick(const std::vector<MemSampleRequest> &requests,
                             uint64_t opp_index, uint32_t interleave_chunk)
{
    if (!enabled_)
        return true;

    ++tickSerial_;
    scratchSig_.cores.resize(requests.size());
    for (size_t c = 0; c < requests.size(); ++c) {
        CoreKey &key = scratchSig_.cores[c];
        const MemSampleRequest &req = requests[c];
        if (req.samples > 0 && req.stream != nullptr) {
            key.streamId = req.stream->streamId();
            key.generation = req.stream->generation();
        } else {
            key.streamId = 0;
            key.generation = 0;
        }
    }
    scratchSig_.oppIndex = opp_index;
    scratchSig_.interleaveChunk = interleave_chunk;

    for (size_t i = 0; i < entries_.size(); ++i) {
        Entry &entry = entries_[i];
        if (!(entry.signature == scratchSig_))
            continue;
        currentEntry_ = i;
        const bool ran_last_tick = entry.lastUseTick + 1 == tickSerial_;
        entry.lastUseTick = tickSerial_;
        if (!entry.converged) {
            pending_ = Pending::Converging;
            pendingWarm_ = creditWalkProbes(requests);
            ++sampledTicks_;
            return true;
        }
        if (!ran_last_tick ||
            entry.reusesSinceSample >= config_.refreshTicks) {
            // Confidence refresh, or the phase returns from dormancy
            // (other phases may have perturbed the shared caches):
            // walk once and test agreement with the cached rates.
            pending_ = Pending::Revalidate;
            pendingWarm_ = creditWalkProbes(requests);
            ++sampledTicks_;
            return true;
        }
        ++entry.reusesSinceSample;
        pending_ = Pending::None;
        ++reusedTicks_;
        return false;
    }

    // Unknown phase: sample, then store() installs a new entry. If a
    // converged entry differs only in its OPP index, remember it — the
    // install walk will double as a revalidation against its rates,
    // and agreement converges the new phase immediately (cache
    // contents, and hence miss rates, survive OPP switches).
    seedFrom_ = kNoSeed;
    for (size_t i = 0; i < entries_.size(); ++i) {
        const Entry &entry = entries_[i];
        if (!entry.converged ||
            entry.signature.interleaveChunk !=
                scratchSig_.interleaveChunk ||
            entry.signature.oppIndex == scratchSig_.oppIndex ||
            !(entry.signature.cores == scratchSig_.cores))
            continue;
        if (seedFrom_ == kNoSeed ||
            entry.lastUseTick > entries_[seedFrom_].lastUseTick)
            seedFrom_ = i;
    }
    pending_ = Pending::Install;
    pendingWarm_ = creditWalkProbes(requests);
    currentEntry_ = entries_.size();
    ++sampledTicks_;
    return true;
}

void
MissRateEstimator::store(const std::vector<MemSampleResult> &results)
{
    if (!enabled_ || pending_ == Pending::None)
        return;
    const Pending pending = pending_;
    pending_ = Pending::None;

    if (pending == Pending::Install) {
        // OPP-sibling seeding: test agreement before the LRU eviction
        // below can invalidate the candidate index. The warm-up floor
        // still gates the verdict — a cold stream must take the dense
        // ladder regardless of what a sibling claims.
        const bool seeded = seedFrom_ != kNoSeed && pendingWarm_ &&
            ratesAgree(entries_[seedFrom_].results, results);
        seedFrom_ = kNoSeed;
        if (entries_.size() >= config_.maxEntries) {
            // Deterministic LRU eviction.
            size_t victim = 0;
            for (size_t i = 1; i < entries_.size(); ++i)
                if (entries_[i].lastUseTick <
                    entries_[victim].lastUseTick)
                    victim = i;
            entries_.erase(entries_.begin() +
                           static_cast<std::ptrdiff_t>(victim));
        }
        Entry entry;
        entry.signature = scratchSig_;
        entry.lastUseTick = tickSerial_;
        beginConvergence(entry, results);
        if (seeded) {
            entry.converged = true;
            ++seededPhases_;
        }
        entries_.push_back(std::move(entry));
        currentEntry_ = entries_.size() - 1;
        return;
    }

    Entry &entry = entries_[currentEntry_];
    if (pending == Pending::Revalidate) {
        if (ratesAgree(entry.results, results)) {
            entry.results = results;
            entry.reusesSinceSample = 0;
        } else {
            // The phase drifted under its frozen rates (slow cache
            // transient, contention shift): back to dense sampling.
            ++demotions_;
            beginConvergence(entry, results);
        }
        return;
    }

    // Pending::Converging — dense sampling; compare doubling-window
    // checkpoints until two in a row agree within noise. The warm-up
    // floor gates the verdict: a slow transient drifts below per-walk
    // noise, so until the streams' cumulative probes cover their cold
    // regions a checkpoint agreement proves nothing — keep walking on
    // a short, non-doubling cadence instead.
    entry.results = results;
    entry.reusesSinceSample = 0;
    ++entry.walks;
    if (entry.walks >= entry.nextCheckWalks) {
        if (!pendingWarm_) {
            entry.checkpoint = results;
            entry.nextCheckWalks =
                entry.walks + std::max<uint32_t>(2, config_.convergeTicks);
        } else if (ratesAgree(entry.checkpoint, results)) {
            entry.converged = true;
        } else {
            // Disagreement past the floor: double the checkpoint
            // *spacing*. (Doubling the absolute walk count instead
            // would inherit however many walks the warm-up already
            // consumed and overshoot by a whole cold window.)
            entry.checkpoint = results;
            if (entry.checkWindow > (1u << 30))  // overflow guard
                entry.checkWindow = 1u << 30;
            else
                entry.checkWindow *= 2;
            entry.nextCheckWalks = entry.walks + entry.checkWindow;
        }
    }
}

void
MissRateEstimator::fill(std::vector<MemSampleResult> &results) const
{
    if (currentEntry_ >= entries_.size())
        panic("MissRateEstimator::fill without a cached entry");
    results = entries_[currentEntry_].results;
}

void
MissRateEstimator::invalidate()
{
    if (!enabled_)
        return;
    entries_.clear();
    pending_ = Pending::None;
    seedFrom_ = kNoSeed;
    ++invalidations_;
}

void
MissRateEstimator::reset()
{
    entries_.clear();
    warmth_.clear();
    pending_ = Pending::None;
    pendingWarm_ = false;
    seedFrom_ = kNoSeed;
    currentEntry_ = 0;
    tickSerial_ = 0;
    reusedTicks_ = 0;
    sampledTicks_ = 0;
    demotions_ = 0;
    invalidations_ = 0;
    seededPhases_ = 0;
}

namespace
{

void
putResults(SnapshotWriter &w,
           const std::vector<MemSampleResult> &results)
{
    w.putSize(results.size());
    for (const auto &s : results) {
        w.putU32(s.core);
        w.putDouble(s.l1MissRate);
        w.putDouble(s.l2LocalMissRate);
        w.putU32(s.samplesIssued);
    }
}

[[nodiscard]] bool
getResults(SnapshotReader &r, std::vector<MemSampleResult> *out)
{
    size_t count;
    if (!r.getSize(&count))
        return false;
    std::vector<MemSampleResult> results(count);
    for (auto &s : results)
        if (!r.getU32(&s.core) || !r.getDouble(&s.l1MissRate) ||
            !r.getDouble(&s.l2LocalMissRate) ||
            !r.getU32(&s.samplesIssued))
            return false;
    *out = std::move(results);
    return true;
}

} // namespace

void
MissRateEstimator::snapshot(SnapshotWriter &w) const
{
    w.beginSection("mre ", 2);
    w.putBool(enabled_);
    w.putU64(l2Lines_);
    w.putSize(entries_.size());
    for (const auto &e : entries_) {
        w.putSize(e.signature.cores.size());
        for (const auto &c : e.signature.cores) {
            w.putU64(c.streamId);
            w.putU64(c.generation);
        }
        w.putU64(e.signature.oppIndex);
        w.putU32(e.signature.interleaveChunk);
        putResults(w, e.results);
        putResults(w, e.checkpoint);
        w.putBool(e.converged);
        w.putU32(e.walks);
        w.putU32(e.nextCheckWalks);
        w.putU32(e.checkWindow);
        w.putU32(e.reusesSinceSample);
        w.putU64(e.lastUseTick);
    }
    w.putSize(warmth_.size());
    for (const auto &s : warmth_) {
        w.putU64(s.key.streamId);
        w.putU64(s.key.generation);
        w.putDouble(s.probes);
        w.putDouble(s.targetProbes);
        w.putU64(s.lastUseTick);
    }
    w.putSize(currentEntry_);
    w.putU8(static_cast<uint8_t>(pending_));
    w.putBool(pendingWarm_);
    w.putSize(seedFrom_);
    w.putU64(tickSerial_);
    w.putU64(reusedTicks_);
    w.putU64(sampledTicks_);
    w.putU64(demotions_);
    w.putU64(invalidations_);
    w.putU64(seededPhases_);
}

bool
MissRateEstimator::tryRestore(SnapshotReader &r)
{
    if (!r.beginSection("mre ", 2))
        return false;
    bool enabled;
    uint64_t l2_lines;
    size_t entry_count;
    if (!r.getBool(&enabled) || enabled != enabled_ ||
        !r.getU64(&l2_lines) || !r.getSize(&entry_count))
        return false;
    std::vector<Entry> entries(entry_count);
    for (auto &e : entries) {
        size_t core_count;
        if (!r.getSize(&core_count))
            return false;
        e.signature.cores.resize(core_count);
        for (auto &c : e.signature.cores)
            if (!r.getU64(&c.streamId) || !r.getU64(&c.generation))
                return false;
        if (!r.getU64(&e.signature.oppIndex) ||
            !r.getU32(&e.signature.interleaveChunk) ||
            !getResults(r, &e.results) ||
            !getResults(r, &e.checkpoint) || !r.getBool(&e.converged) ||
            !r.getU32(&e.walks) || !r.getU32(&e.nextCheckWalks) ||
            !r.getU32(&e.checkWindow) ||
            !r.getU32(&e.reusesSinceSample) ||
            !r.getU64(&e.lastUseTick))
            return false;
    }
    size_t warmth_count;
    if (!r.getSize(&warmth_count))
        return false;
    std::vector<StreamWarmth> warmth(warmth_count);
    for (auto &s : warmth)
        if (!r.getU64(&s.key.streamId) || !r.getU64(&s.key.generation) ||
            !r.getDouble(&s.probes) || !r.getDouble(&s.targetProbes) ||
            !r.getU64(&s.lastUseTick))
            return false;
    size_t current_entry, seed_from;
    uint8_t pending;
    bool pending_warm;
    uint64_t tick_serial, reused, sampled, demotions, invalidations;
    uint64_t seeded;
    if (!r.getSize(&current_entry) || !r.getU8(&pending) ||
        pending > static_cast<uint8_t>(Pending::Install) ||
        !r.getBool(&pending_warm) || !r.getSize(&seed_from) ||
        !r.getU64(&tick_serial) ||
        !r.getU64(&reused) || !r.getU64(&sampled) ||
        !r.getU64(&demotions) || !r.getU64(&invalidations) ||
        !r.getU64(&seeded))
        return false;
    if (seed_from != kNoSeed && seed_from >= entries.size())
        return false;
    l2Lines_ = l2_lines;
    entries_ = std::move(entries);
    warmth_ = std::move(warmth);
    currentEntry_ = current_entry;
    pending_ = static_cast<Pending>(pending);
    pendingWarm_ = pending_warm;
    seedFrom_ = seed_from;
    tickSerial_ = tick_serial;
    reusedTicks_ = reused;
    sampledTicks_ = sampled;
    demotions_ = demotions;
    invalidations_ = invalidations;
    seededPhases_ = seeded;
    return true;
}

} // namespace dora
