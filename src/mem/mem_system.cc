#include "mem/mem_system.hh"

#include <algorithm>
#include <numeric>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/units.hh"
#include "mem/address_stream.hh"

namespace dora
{

namespace
{

#if defined(__SSE2__)

/**
 * Bitmask of the ways in an 8-way tag row whose tag equals @p tag
 * (invalid ways hold CacheModel::kInvalidTag, which no line equals, so
 * at most one way matches). Baseline SSE2 has no 64-bit
 * equality, so each 128-bit lane pair is compared as 32-bit lanes and
 * a 64-bit way matches iff both of its movemask byte-halves are full.
 */
inline uint32_t
tagMatchMask8(const uint64_t *row, uint64_t tag)
{
    const __m128i t = _mm_set1_epi64x(static_cast<long long>(tag));
    uint32_t mask = 0;
    for (int i = 0; i < 4; ++i) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(row + 2 * i));
        const int m = _mm_movemask_epi8(_mm_cmpeq_epi32(v, t));
        mask |= static_cast<uint32_t>((m & 0xFF) == 0xFF) << (2 * i);
        mask |= static_cast<uint32_t>((m >> 8) == 0xFF) << (2 * i + 1);
    }
    return mask;
}

#endif // __SSE2__

} // namespace

MemSystemConfig::MemSystemConfig()
{
    // Defaults mirror the Nexus 5 / MSM8974 (paper Table II).
    l1.name = "l1d";
    l1.sizeBytes = 16 * 1024;
    l1.associativity = 4;
    l1.lineBytes = kCacheLineBytes;

    l2.name = "l2";
    l2.sizeBytes = 2 * 1024 * 1024;
    l2.associativity = 8;
    l2.lineBytes = kCacheLineBytes;
}

namespace
{

CacheConfig
makeL1Config(const MemSystemConfig &config, uint32_t core)
{
    CacheConfig c = config.l1;
    c.name = config.l1.name + std::to_string(core);
    c.numRequestors = 1;
    return c;
}

CacheConfig
makeL2Config(const MemSystemConfig &config)
{
    CacheConfig c = config.l2;
    c.numRequestors = config.numCores;
    return c;
}

} // namespace

MemSystem::MemSystem(const MemSystemConfig &config)
    : config_(config), l2_(makeL2Config(config)), dram_(config.dram),
      counters_(config.numCores)
{
    if (config.numCores == 0)
        fatal("MemSystem: need at least one core");
    l1s_.reserve(config.numCores);
    for (uint32_t c = 0; c < config.numCores; ++c)
        l1s_.emplace_back(makeL1Config(config, c));
}

std::vector<MemSampleResult>
MemSystem::tickSample(const std::vector<MemSampleRequest> &requests)
{
    std::vector<MemSampleResult> results;
    tickSample(requests, results);
    return results;
}

void
MemSystem::tickSample(const std::vector<MemSampleRequest> &requests,
                      std::vector<MemSampleResult> &results)
{
    if (buildLive(requests)) {
        if (batchedWalk_ && batchedWalkEligible(requests))
            walkBatched(liveScratch_);
        else
            walkInterleaved(liveScratch_);
    }
    fillResults(requests, results);
}

bool
MemSystem::buildLive(const std::vector<MemSampleRequest> &requests)
{
    // One walk-state slot per request, index-parallel: zero-sample
    // requests keep a dead slot (remaining == 0) so the result pairing
    // in fillResults() is a direct index lookup, not a pointer search.
    auto &live = liveScratch_;
    live.clear();
    live.reserve(requests.size());
    bool any = false;
    for (const auto &req : requests) {
        if (req.core >= config_.numCores)
            panic("MemSystem::tickSample: core %u out of range", req.core);
        if (req.samples > 0 && req.stream == nullptr)
            panic("MemSystem::tickSample: null stream with samples");
        live.push_back(LiveStream{&req, req.samples, 0, 0});
        any = any || req.samples > 0;
    }
    return any;
}

void
MemSystem::fillResults(const std::vector<MemSampleRequest> &requests,
                       std::vector<MemSampleResult> &results) const
{
    const auto &live = liveScratch_;
    results.clear();
    results.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        const MemSampleRequest &req = requests[i];
        const LiveStream &lv = live[i];
        MemSampleResult res;
        res.core = req.core;
        res.samplesIssued = req.samples;
        if (req.samples > 0) {
            res.l1MissRate = static_cast<double>(lv.l1Misses) /
                static_cast<double>(req.samples);
            res.l2LocalMissRate = lv.l1Misses
                ? static_cast<double>(lv.l2Misses) /
                    static_cast<double>(lv.l1Misses)
                : 0.0;
        }
        results.push_back(res);
    }
}

void
MemSystem::tickSampleMany(WalkJob *jobs, size_t n)
{
    // First sweep: every system sizes its walk. Eligible batched-walk
    // systems stop after phases A+B (generation + private L1s, both
    // lane-local); the rest complete their whole walk here, exactly as
    // a standalone tickSample() would.
    for (size_t j = 0; j < n; ++j) {
        MemSystem &m = *jobs[j].mem;
        jobs[j].fused = false;
        if (m.buildLive(*jobs[j].requests)) {
            if (m.batchedWalk_ &&
                m.batchedWalkEligible(*jobs[j].requests)) {
                m.walkBatchedPrepare(m.liveScratch_);
                jobs[j].fused = true;
            } else {
                m.walkInterleaved(m.liveScratch_);
            }
        }
    }

    // Second sweep: interleave the shared-L2 drains of the fused
    // systems at round-robin pass granularity. Each system executes
    // its own passes in order — per-system results stay bit-identical
    // to tickSample() — but consecutive passes touch different
    // hierarchies, so their independent miss chains overlap in the
    // host pipeline instead of serializing lane after lane.
    bool more = true;
    for (uint64_t p = 0; more; ++p) {
        more = false;
        for (size_t j = 0; j < n; ++j) {
            MemSystem &m = *jobs[j].mem;
            if (!jobs[j].fused || p >= m.walkPasses_)
                continue;
            m.walkBatchedDrain(m.liveScratch_, p, p + 1);
            more = more || p + 1 < m.walkPasses_;
        }
    }

    for (size_t j = 0; j < n; ++j)
        jobs[j].mem->fillResults(*jobs[j].requests, *jobs[j].results);
}

void
MemSystem::walkInterleaved(std::vector<LiveStream> &live)
{
    // Weighted round-robin in chunks: each pass, every still-live stream
    // issues up to interleaveChunk accesses. This approximates the
    // fine-grained interleaving of concurrently executing cores.
    const uint32_t chunk = std::max<uint32_t>(1, config_.interleaveChunk);
    bool any = true;
    while (any) {
        any = false;
        for (auto &lv : live) {
            if (lv.remaining == 0)
                continue;
            const uint32_t n = std::min(chunk, lv.remaining);
            for (uint32_t i = 0; i < n; ++i) {
                const uint64_t line = lv.req->stream->next();
                const uint32_t core = lv.req->core;
                if (!l1s_[core].access(line, 0)) {
                    ++lv.l1Misses;
                    if (!l2_.access(line, core))
                        ++lv.l2Misses;
                }
            }
            lv.remaining -= n;
            any = any || lv.remaining > 0;
        }
    }
}

bool
MemSystem::batchedWalkEligible(
    const std::vector<MemSampleRequest> &requests) const
{
    // The kernel's phase split assumes private L1s (one stream per
    // core, so requestor cores are strictly increasing, as Soc submits
    // them) and pure-LRU replacement in both levels; anything else
    // takes the reference walk.
    if (config_.l1.policy != ReplacementPolicy::Lru ||
        config_.l2.policy != ReplacementPolicy::Lru)
        return false;
    for (size_t i = 1; i < requests.size(); ++i)
        if (requests[i].core <= requests[i - 1].core)
            return false;
    return true;
}

void
MemSystem::walkBatched(std::vector<LiveStream> &live)
{
    // Three-phase replay of walkInterleaved() with identical results
    // (DESIGN.md §5g). Phase A draws every stream's sample up front
    // (burst-run fills, same RNG draw order); phase B probes each
    // private L1 stream-at-a-time — legal because an L1 is touched
    // only by its own core, so the interleaved schedule restricted to
    // one L1 *is* stream order — collecting L1-miss index lists and
    // sorting them into one flat drain list in the legacy round-robin
    // chunk order; phase C drains that list into the shared L2, so the
    // shared-state access order is untouched. Inner loops run over
    // hoisted raw pointers (enforced by the dora-perf-lane-alias lint
    // rule). The phase split is also the fusion point for lane
    // batches: tickSampleMany() runs phases A+B per lane and
    // interleaves the drains pass by pass.
    walkBatchedPrepare(live);
    walkBatchedDrain(live, 0, walkPasses_);
}

void
MemSystem::walkBatchedPrepare(std::vector<LiveStream> &live)
{
    const uint32_t chunk = std::max<uint32_t>(1, config_.interleaveChunk);
    const size_t n_req = live.size();

    // Slice the flat scratch: request r's lines and miss-index list
    // live at [walkOffsets_[r], walkOffsets_[r] + samples).
    walkOffsets_.resize(n_req + 1);
    size_t total = 0;
    uint32_t max_samples = 0;
    for (size_t r = 0; r < n_req; ++r) {
        walkOffsets_[r] = total;
        total += live[r].req->samples;
        max_samples = std::max(max_samples, live[r].req->samples);
    }
    walkOffsets_[n_req] = total;
    if (walkLines_.size() < total) {
        walkLines_.resize(total);
        walkMiss_.resize(total);
    }
    walkPasses_ =
        (static_cast<uint64_t>(max_samples) + chunk - 1) / chunk;

    // Phase A: generation.
    for (size_t r = 0; r < n_req; ++r)
        if (live[r].req->samples > 0)
            live[r].req->stream->nextRuns(&walkLines_[walkOffsets_[r]],
                                          live[r].req->samples);

    // Phase B: private L1 probes. Most probes hit (the sampled L1 miss
    // rate is ~11 %). Invalid ways hold CacheModel::kInvalidTag and a
    // line sits in at most one way, so a hit is the one tag match: the
    // probe reads no stamps (consecutive probes do not wait on the
    // previous probe's stamp store) and selects the way without a
    // branch (the hit way is data-dependent, so an early-exit scan
    // mispredicts on most hits).
    for (size_t r = 0; r < n_req; ++r) {
        const uint32_t samples = live[r].req->samples;
        if (samples == 0)
            continue;
        CacheModel &l1 = l1s_[live[r].req->core];
        const uint64_t *lines = &walkLines_[walkOffsets_[r]];
        uint32_t *miss = &walkMiss_[walkOffsets_[r]];
        const uint32_t assoc = l1.config_.associativity;
        const uint32_t set_mask = l1.numSets_ - 1;
        uint64_t *tags = l1.tags_.data();
        uint64_t *use = l1.lastUse_.data();
        uint64_t clock = l1.accessClock_;
        uint64_t self_ev = 0;
        uint64_t invalid_fills = 0;
        uint32_t miss_count = 0;
        // dora:lane-kernel-begin
        for (uint32_t i = 0; i < samples; ++i) {
            const uint64_t line = lines[i];
            ++clock;
            const size_t base =
                (static_cast<uint32_t>(line) & set_mask) *
                static_cast<size_t>(assoc);
            uint32_t way = assoc;
            for (uint32_t w = 0; w < assoc; ++w)
                way = tags[base + w] == line ? w : way;
            if (way < assoc) {
                // Hit: the L1 has one requestor, so no ownership moves.
                use[base + way] = clock;
                continue;
            }
            uint32_t victim = 0;
            uint64_t best = use[base];
            for (uint32_t v = 1; v < assoc; ++v) {
                const bool better = use[base + v] < best;
                best = better ? use[base + v] : best;
                victim = better ? v : victim;
            }
            self_ev += best != 0;
            invalid_fills += best == 0;
            tags[base + victim] = line;
            use[base + victim] = clock;
            miss[miss_count] = i;
            ++miss_count;
        }
        // dora:lane-kernel-end
        l1.accessClock_ = clock;
        CacheStats &st = l1.stats_[0];
        st.accesses += samples;
        st.misses += miss_count;
        // Every valid L1 victim belongs to the sole requestor, and a
        // valid-victim fill leaves its owned-line count unchanged.
        st.selfEvictions += self_ev;
        l1.owned_[0] += invalid_fills;
        live[r].l1Misses = miss_count;
    }

    // Drain layout: a counting sort of every stream's L1-miss indices
    // on pass number (index / chunk). Streams scatter in request order
    // and each stream's indices ascend, so a pass holds its requests
    // in request order, then index order — the order in which
    // walkInterleaved() reaches the shared L2.
    walkPassStart_.assign(walkPasses_ + 1, 0);
    size_t *start = walkPassStart_.data();
    for (size_t r = 0; r < n_req; ++r) {
        const uint64_t count = live[r].l1Misses;
        if (count == 0)
            continue;
        const uint32_t *miss = &walkMiss_[walkOffsets_[r]];
        // dora:lane-kernel-begin
        for (uint64_t k = 0; k < count; ++k)
            ++start[miss[k] / chunk + 1];
        // dora:lane-kernel-end
    }
    std::partial_sum(start, start + walkPasses_ + 1, start);
    walkPassFill_.assign(start, start + walkPasses_);
    if (walkDrain_.size() < start[walkPasses_])
        walkDrain_.resize(start[walkPasses_]);
    size_t *fill = walkPassFill_.data();
    DrainEntry *drain = walkDrain_.data();
    for (size_t r = 0; r < n_req; ++r) {
        const uint64_t count = live[r].l1Misses;
        if (count == 0)
            continue;
        const uint64_t *lines = &walkLines_[walkOffsets_[r]];
        const uint32_t *miss = &walkMiss_[walkOffsets_[r]];
        const uint32_t core = live[r].req->core;
        const uint32_t stream = static_cast<uint32_t>(r);
        // dora:lane-kernel-begin
        for (uint64_t k = 0; k < count; ++k)
            drain[fill[miss[k] / chunk]++] =
                DrainEntry{lines[miss[k]], core, stream};
        // dora:lane-kernel-end
    }
}

void
MemSystem::walkBatchedDrain(std::vector<LiveStream> &live,
                            uint64_t pass_begin, uint64_t pass_end)
{
    // Phase C: shared-L2 drain of the requests prepare laid out for
    // passes [pass_begin, pass_end), in order.
    const size_t n_req = live.size();
    CacheModel &l2 = l2_;
    const uint32_t assoc2 = l2.config_.associativity;
    const uint32_t set_mask2 = l2.numSets_ - 1;
    uint64_t *tags2 = l2.tags_.data();
    uint64_t *use2 = l2.lastUse_.data();
    uint32_t *owners2 = l2.owners_.data();
    uint64_t *owned2 = l2.owned_.data();
    CacheStats *stats2 = l2.stats_.data();
    uint64_t clock2 = l2.accessClock_;
    LiveStream *lv = live.data();
    const DrainEntry *drain = walkDrain_.data();
    // Prefetch looks past the end of this call: a per-pass caller
    // drains the following passes next.
    const size_t all_end = walkPassStart_[walkPasses_];
    const size_t end = walkPassStart_[pass_end];
    constexpr size_t kPrefetchDist = 8;

    // dora:lane-kernel-begin
    for (size_t i = walkPassStart_[pass_begin]; i < end; ++i) {
        const uint64_t line = drain[i].line;
        const uint32_t core = drain[i].core;
        if (i + kPrefetchDist < all_end) {
            const uint64_t pf = drain[i + kPrefetchDist].line;
            const size_t pb = (static_cast<uint32_t>(pf) & set_mask2) *
                static_cast<size_t>(assoc2);
            __builtin_prefetch(&tags2[pb]);
            __builtin_prefetch(&use2[pb]);
            __builtin_prefetch(&owners2[pb]);
        }
        ++clock2;
        const size_t base = (static_cast<uint32_t>(line) & set_mask2) *
            static_cast<size_t>(assoc2);
        // Invalid ways hold kInvalidTag, so a tag match is a hit.
        uint32_t way = assoc2;
#if defined(__SSE2__)
        if (assoc2 == 8) {
            const uint32_t m = tagMatchMask8(&tags2[base], line);
            if (m)
                way = static_cast<uint32_t>(__builtin_ctz(m));
        } else
#endif
        {
            for (uint32_t w = 0; w < assoc2; ++w)
                way = tags2[base + w] == line ? w : way;
        }
        if (way < assoc2) {
            const uint32_t owner = owners2[base + way];
            if (owner != core) {
                --owned2[owner];
                ++owned2[core];
                owners2[base + way] = core;
            }
            use2[base + way] = clock2;
            continue;
        }
        ++lv[drain[i].stream].l2Misses;
        uint32_t victim = 0;
        uint64_t best = use2[base];
        for (uint32_t v = 1; v < assoc2; ++v) {
            const bool better = use2[base + v] < best;
            best = better ? use2[base + v] : best;
            victim = better ? v : victim;
        }
        if (best != 0) {
            const uint32_t vo = owners2[base + victim];
            if (vo == core)
                ++stats2[vo].selfEvictions;
            else
                ++stats2[vo].interferenceEvictions;
            --owned2[vo];
        }
        ++owned2[core];
        tags2[base + victim] = line;
        owners2[base + victim] = core;
        use2[base + victim] = clock2;
    }
    // dora:lane-kernel-end
    l2.accessClock_ = clock2;
    // Stats commit exactly once per walk, after the final pass (drains
    // may arrive one pass at a time through tickSampleMany()).
    if (pass_end >= walkPasses_) {
        for (size_t r = 0; r < n_req; ++r) {
            CacheStats &st = stats2[live[r].req->core];
            st.accesses += live[r].l1Misses;
            st.misses += live[r].l2Misses;
        }
    }
}

void
MemSystem::commitScaled(uint32_t core, double real_accesses,
                        const MemSampleResult &result)
{
    if (core >= config_.numCores)
        panic("MemSystem::commitScaled: core %u out of range", core);
    if (real_accesses < 0.0)
        panic("MemSystem::commitScaled: negative access count");

    auto &ctr = counters_[core];
    const double l1_misses = real_accesses * result.l1MissRate;
    const double l2_misses = l1_misses * result.l2LocalMissRate;
    ctr.l1Accesses += real_accesses;
    ctr.l1Misses += l1_misses;
    ctr.l2Accesses += l1_misses;
    ctr.l2Misses += l2_misses;

    dram_.addDemand(l2_misses * kCacheLineBytes);
}

void
MemSystem::endTick(double dt_sec, double bus_mhz)
{
    dram_.endTick(dt_sec, bus_mhz);
}

const CoreMemCounters &
MemSystem::coreCounters(uint32_t core) const
{
    if (core >= counters_.size())
        panic("MemSystem::coreCounters: core %u out of range", core);
    return counters_[core];
}

CoreMemCounters
MemSystem::totalCounters() const
{
    CoreMemCounters total;
    for (const auto &ctr : counters_) {
        total.l1Accesses += ctr.l1Accesses;
        total.l1Misses += ctr.l1Misses;
        total.l2Accesses += ctr.l2Accesses;
        total.l2Misses += ctr.l2Misses;
    }
    return total;
}

const CacheModel &
MemSystem::l1(uint32_t core) const
{
    if (core >= l1s_.size())
        panic("MemSystem::l1: core %u out of range", core);
    return l1s_[core];
}

void
MemSystem::reset()
{
    for (auto &l1 : l1s_) {
        l1.flush();
        l1.resetStats();
    }
    l2_.flush();
    l2_.resetStats();
    dram_.reset();
    std::fill(counters_.begin(), counters_.end(), CoreMemCounters());
}

void
MemSystem::snapshot(SnapshotWriter &w) const
{
    w.beginSection("mems", 1);
    w.putSize(l1s_.size());
    for (const auto &l1 : l1s_)
        l1.snapshot(w);
    l2_.snapshot(w);
    dram_.snapshot(w);
    w.putSize(counters_.size());
    for (const auto &c : counters_) {
        w.putDouble(c.l1Accesses);
        w.putDouble(c.l1Misses);
        w.putDouble(c.l2Accesses);
        w.putDouble(c.l2Misses);
    }
}

bool
MemSystem::tryRestore(SnapshotReader &r)
{
    if (!r.beginSection("mems", 1))
        return false;
    size_t l1_count;
    if (!r.getSize(&l1_count) || l1_count != l1s_.size())
        return false;
    for (auto &l1 : l1s_)
        if (!l1.tryRestore(r))
            return false;
    if (!l2_.tryRestore(r) || !dram_.tryRestore(r))
        return false;
    size_t counter_count;
    if (!r.getSize(&counter_count) || counter_count != counters_.size())
        return false;
    std::vector<CoreMemCounters> counters(counters_.size());
    for (auto &c : counters)
        if (!r.getDouble(&c.l1Accesses) || !r.getDouble(&c.l1Misses) ||
            !r.getDouble(&c.l2Accesses) || !r.getDouble(&c.l2Misses))
            return false;
    counters_ = std::move(counters);
    return true;
}

} // namespace dora
