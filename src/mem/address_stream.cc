#include "mem/address_stream.hh"

#include <algorithm>
#include <atomic>

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/units.hh"
#include "mem/cache_model.hh"

namespace dora
{

namespace
{

/**
 * Process-wide stream-id source. Ids are compared only for equality
 * (phase-change detection), so the allocation order dependence of the
 * raw values is harmless — two live streams never share an id.
 */
uint64_t
nextStreamId()
{
    static std::atomic<uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

} // namespace

AddressStream::AddressStream(const AddressStreamSpec &spec,
                             uint64_t base_line, Rng rng)
    : spec_(spec), baseLine_(base_line), rng_(rng),
      streamId_(nextStreamId())
{
    reshape(spec);
    generation_ = 0;  // construction is generation 0, not a reshape
}

void
AddressStream::reshape(const AddressStreamSpec &spec)
{
    // Negated range tests so a NaN field fails them too.
    if (spec.workingSetBytes < kCacheLineBytes)
        panic("AddressStream: working set smaller than one line");
    if (!(spec.hotFraction >= 0.0 && spec.hotFraction <= 1.0))
        panic("AddressStream: hotFraction %g out of [0,1]",
              spec.hotFraction);
    if (!(spec.hotSetFraction > 0.0 && spec.hotSetFraction <= 1.0))
        panic("AddressStream: hotSetFraction %g out of (0,1]",
              spec.hotSetFraction);
    if (!(spec.burstContinueProb >= 0.0 && spec.burstContinueProb <= 1.0))
        panic("AddressStream: burstContinueProb %g out of [0,1]",
              spec.burstContinueProb);
    if (spec.burstCap == 0)
        panic("AddressStream: burstCap must be at least 1");
    const uint64_t ws_lines =
        std::max<uint64_t>(1, spec.workingSetBytes / kCacheLineBytes);
    // The caches mark invalid ways with a tag no line may equal.
    if (ws_lines > CacheModel::kInvalidTag - baseLine_)
        panic("AddressStream: lines from base %llu reach the invalid tag",
              static_cast<unsigned long long>(baseLine_));
    spec_ = spec;
    wsLines_ = ws_lines;
    hotLines_ = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               static_cast<double>(wsLines_) * spec.hotSetFraction));
    setThresholds();
    burstLeft_ = 0;
    cursor_ = 0;
    ++generation_;
}

void
AddressStream::setThresholds()
{
    hotThreshold_ = Rng::chanceThreshold(spec_.hotFraction);
    burstThreshold_ = Rng::chanceThreshold(spec_.burstContinueProb);
}

uint64_t
AddressStream::next()
{
    if (burstLeft_ == 0) {
        // Start a new burst: draw the region and the burst length up
        // front, then pick a random line within the region. The draw
        // is < span <= wsLines_, so the cursor invariant holds.
        const bool hot = rng_.chanceBelow(hotThreshold_);
        const uint64_t span = hot ? hotLines_ : wsLines_;
        cursor_ = rng_.below(span);
        burstLeft_ = rng_.burstLengthBelow(burstThreshold_, spec_.burstCap);
    }
    --burstLeft_;
    // cursor_ < wsLines_ by invariant; a conditional wrap keeps it so,
    // emitting the same base + ((start + k) mod wsLines) sequence the
    // old per-access modulo produced without the divide.
    const uint64_t line = baseLine_ + cursor_;
    if (++cursor_ == wsLines_)
        cursor_ = 0;
    return line;
}

void
AddressStream::nextRuns(uint64_t *out, uint32_t n)
{
    // Mirrors next() exactly: a new burst draws region, start line, and
    // length in the same order from the same generator, and the burst
    // then advances the cursor one line per access (wrapping at the
    // working-set edge, with the burst continuing across the wrap).
    // Instead of re-entering per access, each burst is emitted as up to
    // three capped sequential fills (burst left / request left / lines
    // to the wrap), so the generator state is only touched per burst.
    // The generator and the draw thresholds live in locals for the whole
    // call, so the burst draws run in registers rather than through
    // member loads and stores.
    Rng rng = rng_;
    uint64_t cur = cursor_;
    uint64_t left = burstLeft_;
    const uint64_t ws = wsLines_;
    const uint64_t hot = hotLines_;
    const uint64_t base = baseLine_;
    const uint64_t hot_threshold = hotThreshold_;
    const uint64_t burst_threshold = burstThreshold_;
    const uint64_t cap = spec_.burstCap;
    uint32_t i = 0;
    while (i < n) {
        if (left == 0) {
            const uint64_t span = rng.chanceBelow(hot_threshold) ? hot : ws;
            cur = rng.below(span);
            left = rng.burstLengthBelow(burst_threshold, cap);
        }
        uint64_t k = left;
        if (k > n - i)
            k = n - i;
        if (k > ws - cur)
            k = ws - cur;
        const uint64_t first = base + cur;
        for (uint64_t j = 0; j < k; ++j)
            out[i + j] = first + j;
        i += static_cast<uint32_t>(k);
        cur += k;
        left -= k;
        if (cur == ws)
            cur = 0;
    }
    rng_ = rng;
    cursor_ = cur;
    burstLeft_ = left;
}

void
AddressStream::snapshot(SnapshotWriter &w) const
{
    w.beginSection("astr", 1);
    w.putU64(streamId_);
    w.putU64(spec_.workingSetBytes);
    w.putDouble(spec_.hotFraction);
    w.putDouble(spec_.hotSetFraction);
    w.putDouble(spec_.burstContinueProb);
    w.putU64(spec_.burstCap);
    w.putU64(baseLine_);
    w.putU64(wsLines_);
    w.putU64(hotLines_);
    const Rng::State rng = rng_.state();
    for (uint64_t word : rng.s)
        w.putU64(word);
    w.putU64(generation_);
    w.putU64(cursor_);
    w.putU64(burstLeft_);
}

bool
AddressStream::tryRestore(SnapshotReader &r)
{
    if (!r.beginSection("astr", 1))
        return false;
    uint64_t stream_id;
    AddressStreamSpec spec;
    uint64_t base_line, ws_lines, hot_lines;
    Rng::State rng;
    uint64_t generation, cursor, burst_left;
    if (!r.getU64(&stream_id) || stream_id != streamId_ ||
        !r.getU64(&spec.workingSetBytes) ||
        !r.getDouble(&spec.hotFraction) ||
        !r.getDouble(&spec.hotSetFraction) ||
        !r.getDouble(&spec.burstContinueProb) ||
        !r.getU64(&spec.burstCap) || !r.getU64(&base_line) ||
        !r.getU64(&ws_lines) || !r.getU64(&hot_lines))
        return false;
    for (uint64_t &word : rng.s)
        if (!r.getU64(&word))
            return false;
    if (!r.getU64(&generation) || !r.getU64(&cursor) ||
        !r.getU64(&burst_left))
        return false;
    spec_ = spec;
    baseLine_ = base_line;
    wsLines_ = ws_lines;
    hotLines_ = hot_lines;
    setThresholds();
    rng_.setState(rng);
    generation_ = generation;
    cursor_ = cursor;
    burstLeft_ = burst_left;
    return true;
}

} // namespace dora
