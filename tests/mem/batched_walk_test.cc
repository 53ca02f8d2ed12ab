/**
 * @file
 * Bit-identity proof for the batched walk kernel (DESIGN.md §5g): a
 * MemSystem running walkBatched() must be indistinguishable — rates,
 * stats, cache arrays, stream RNG state, everything — from one running
 * the per-access reference walk on the same request sequence.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/snapshot.hh"
#include "mem/address_stream.hh"
#include "mem/mem_system.hh"

namespace dora
{
namespace
{

AddressStreamSpec
burstySpec(uint64_t ws_bytes)
{
    AddressStreamSpec spec;
    spec.workingSetBytes = ws_bytes;
    spec.hotFraction = 0.6;
    spec.hotSetFraction = 0.05;
    spec.burstContinueProb = 0.7;
    spec.burstCap = 32;
    return spec;
}

/** Full serialized state: caches, DRAM, counters, and both streams. */
std::string
stateBytes(const MemSystem &mem,
           const std::vector<std::unique_ptr<AddressStream>> &streams)
{
    SnapshotWriter w;
    mem.snapshot(w);
    for (const auto &s : streams)
        s->snapshot(w);
    return w.finish();
}

struct Rig
{
    MemSystem mem;
    std::vector<std::unique_ptr<AddressStream>> streams;

    explicit Rig(const MemSystemConfig &config, bool batched)
        : mem(config)
    {
        mem.setBatchedWalk(batched);
        for (uint32_t c = 0; c < config.numCores; ++c)
            streams.push_back(std::make_unique<AddressStream>(
                burstySpec((c + 1) * 48 * 1024), c * (1u << 20),
                Rng(1234567u + c)));
    }
};

void
expectIdenticalWalks(const MemSystemConfig &config)
{
    Rig legacy(config, false);
    Rig batched(config, true);

    // Stream ids differ between the rigs (process-global counter), so
    // compare snapshots against a same-rig baseline through an id-free
    // probe: rates + per-requestor stats + owned lines, every tick,
    // plus RNG/cursor state via each stream's own draw continuation.
    std::vector<MemSampleRequest> reqs_a(config.numCores);
    std::vector<MemSampleRequest> reqs_b(config.numCores);
    std::vector<MemSampleResult> res_a;
    std::vector<MemSampleResult> res_b;
    // Varying per-core sample counts, including idle (0) cores and a
    // tail where only one stream stays live deep into the round-robin.
    const uint32_t plans[6][4] = {{400, 333, 0, 57},  {0, 0, 0, 0},
                                  {900, 11, 222, 64}, {8, 8, 8, 8},
                                  {1, 1000, 3, 0},    {511, 0, 513, 129}};
    for (const auto &plan : plans) {
        for (uint32_t c = 0; c < config.numCores; ++c) {
            reqs_a[c] = MemSampleRequest{c, legacy.streams[c].get(),
                                         plan[c % 4]};
            reqs_b[c] = MemSampleRequest{c, batched.streams[c].get(),
                                         plan[c % 4]};
        }
        legacy.mem.tickSample(reqs_a, res_a);
        batched.mem.tickSample(reqs_b, res_b);
        ASSERT_EQ(res_a.size(), res_b.size());
        for (size_t i = 0; i < res_a.size(); ++i) {
            EXPECT_EQ(res_a[i].l1MissRate, res_b[i].l1MissRate);
            EXPECT_EQ(res_a[i].l2LocalMissRate,
                      res_b[i].l2LocalMissRate);
            EXPECT_EQ(res_a[i].samplesIssued, res_b[i].samplesIssued);
        }
        for (uint32_t c = 0; c < config.numCores; ++c) {
            const CacheStats &a1 = legacy.mem.l1(c).stats(0);
            const CacheStats &b1 = batched.mem.l1(c).stats(0);
            EXPECT_EQ(a1.accesses, b1.accesses);
            EXPECT_EQ(a1.misses, b1.misses);
            EXPECT_EQ(a1.selfEvictions, b1.selfEvictions);
            EXPECT_EQ(a1.interferenceEvictions,
                      b1.interferenceEvictions);
            EXPECT_EQ(legacy.mem.l1(c).ownedLines(0),
                      batched.mem.l1(c).ownedLines(0));
            const CacheStats &a2 = legacy.mem.l2().stats(c);
            const CacheStats &b2 = batched.mem.l2().stats(c);
            EXPECT_EQ(a2.accesses, b2.accesses);
            EXPECT_EQ(a2.misses, b2.misses);
            EXPECT_EQ(a2.selfEvictions, b2.selfEvictions);
            EXPECT_EQ(a2.interferenceEvictions,
                      b2.interferenceEvictions);
            EXPECT_EQ(legacy.mem.l2().ownedLines(c),
                      batched.mem.l2().ownedLines(c));
        }
    }
    // Generator states must have advanced identically: the next draws
    // from each pair of streams agree.
    for (uint32_t c = 0; c < config.numCores; ++c)
        for (int i = 0; i < 64; ++i)
            EXPECT_EQ(legacy.streams[c]->next(),
                      batched.streams[c]->next());
}

TEST(BatchedWalk, BitIdenticalToReferenceWalkDefaultGeometry)
{
    MemSystemConfig config;  // MSM8974 defaults: 8-way L2 (SIMD probe)
    config.l1.sizeBytes = 4 * 1024;
    config.l2.sizeBytes = 64 * 1024;
    expectIdenticalWalks(config);
}

TEST(BatchedWalk, BitIdenticalToReferenceWalkScalarGeometry)
{
    MemSystemConfig config;
    config.l1.sizeBytes = 4 * 1024;
    config.l2.sizeBytes = 48 * 1024;
    config.l2.associativity = 6;  // non-8-way: scalar probe loop
    expectIdenticalWalks(config);
}

TEST(BatchedWalk, NonLruPolicyFallsBackToReferenceWalk)
{
    MemSystemConfig config;
    config.l1.sizeBytes = 4 * 1024;
    config.l2.sizeBytes = 64 * 1024;
    config.l2.policy = ReplacementPolicy::Random;
    // Identical because the batched rig silently takes the reference
    // path — the point is that enabling the knob is always safe.
    expectIdenticalWalks(config);
}

TEST(BatchedWalk, NextRunsMatchesPerAccessNext)
{
    AddressStream a(burstySpec(96 * 1024), 7000, Rng(99u));
    AddressStream b(burstySpec(96 * 1024), 7000, Rng(99u));
    std::vector<uint64_t> got(4096);
    // Mixed chunk sizes so run boundaries land mid-burst, at burst
    // starts, and across working-set wraps.
    const uint32_t chunks[] = {1, 7, 64, 1000, 3, 3021};
    size_t off = 0;
    for (uint32_t n : chunks) {
        a.nextRuns(got.data() + off, n);
        off += n;
    }
    for (size_t i = 0; i < off; ++i)
        EXPECT_EQ(got[i], b.next()) << "index " << i;
    // Residual state identical too: next draws continue in lockstep.
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(a.next(), b.next());
}

/** Snapshot of the streams' draw state, for replaying their lines. */
std::string
streamBytes(const std::vector<std::unique_ptr<AddressStream>> &streams)
{
    SnapshotWriter w;
    for (const auto &s : streams)
        s->snapshot(w);
    return w.finish();
}

void
rewindStreams(const std::vector<std::unique_ptr<AddressStream>> &streams,
              const std::string &bytes)
{
    SnapshotReader r(bytes);
    for (const auto &s : streams)
        ASSERT_TRUE(s->tryRestore(r));
}

std::vector<MemSampleRequest>
uniformRequests(const Rig &rig, uint32_t samples)
{
    std::vector<MemSampleRequest> reqs;
    for (uint32_t c = 0; c < rig.streams.size(); ++c)
        reqs.push_back(MemSampleRequest{c, rig.streams[c].get(), samples});
    return reqs;
}

void
expectSameResults(const std::vector<MemSampleResult> &a,
                  const std::vector<MemSampleResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].l1MissRate, b[i].l1MissRate) << "request " << i;
        EXPECT_EQ(a[i].l2LocalMissRate, b[i].l2LocalMissRate)
            << "request " << i;
    }
}

TEST(BatchedWalk, ResetThenRewalkMissesOnInvalidatedTags)
{
    // After reset() every cached line is invalid, so replaying the
    // lines a cold walk just cached must miss exactly as that cold
    // walk did — in both walks, even though each invalidated way last
    // held one of those very lines.
    MemSystemConfig config;
    config.l1.sizeBytes = 4 * 1024;
    config.l2.sizeBytes = 64 * 1024;
    std::vector<MemSampleResult> cold_by_mode[2];
    for (bool batched : {false, true}) {
        Rig rig(config, batched);
        const std::string start = streamBytes(rig.streams);
        const std::vector<MemSampleRequest> reqs = uniformRequests(rig, 600);
        std::vector<MemSampleResult> cold;
        std::vector<MemSampleResult> rewalk;
        rig.mem.tickSample(reqs, cold);
        std::vector<uint64_t> l1_misses;
        std::vector<uint64_t> l2_misses;
        for (uint32_t c = 0; c < config.numCores; ++c) {
            l1_misses.push_back(rig.mem.l1(c).stats(0).misses);
            l2_misses.push_back(rig.mem.l2().stats(c).misses);
        }
        rig.mem.reset();
        rewindStreams(rig.streams, start);
        rig.mem.tickSample(reqs, rewalk);
        expectSameResults(cold, rewalk);
        for (uint32_t c = 0; c < config.numCores; ++c) {
            EXPECT_GT(l1_misses[c], 0u);
            EXPECT_EQ(rig.mem.l1(c).stats(0).misses, l1_misses[c]);
            EXPECT_EQ(rig.mem.l2().stats(c).misses, l2_misses[c]);
        }
        cold_by_mode[batched] = cold;
    }
    expectSameResults(cold_by_mode[0], cold_by_mode[1]);
}

/** One `cach` section whose ways are all invalid but hold @p stale. */
void
putStaleCache(SnapshotWriter &w, const CacheModel &cache,
              const std::vector<uint64_t> &stale)
{
    const CacheConfig &cfg = cache.config();
    const size_t ways = static_cast<size_t>(cache.numSets()) *
        cfg.associativity;
    w.beginSection("cach", 1);
    w.putU64(cfg.sizeBytes);
    w.putU32(cfg.associativity);
    w.putU32(cfg.lineBytes);
    w.putU32(cfg.numRequestors);
    w.putU8(static_cast<uint8_t>(cfg.policy));
    // Way tags: each stale line goes to the next free way of its set.
    std::vector<uint64_t> tags(ways, 0);
    std::vector<uint32_t> fill(cache.numSets(), 0);
    for (uint64_t line : stale) {
        const uint32_t set =
            static_cast<uint32_t>(line) & (cache.numSets() - 1);
        if (fill[set] < cfg.associativity)
            tags[static_cast<size_t>(set) * cfg.associativity +
                 fill[set]++] = line;
    }
    w.putU64s(tags);
    w.putU64s(std::vector<uint64_t>(ways, 0));  // every stamp 0: invalid
    w.putU32s(std::vector<uint32_t>(ways, 0));
    w.putU64s(std::vector<uint64_t>(cfg.numRequestors, 0));
    for (uint32_t r = 0; r < cfg.numRequestors; ++r)
        for (int field = 0; field < 4; ++field)
            w.putU64(0);
    w.putU32s({});  // LRU: no PLRU bits
    w.putU64(0);    // access clock
    w.putU64(1);    // random-policy state (unused by LRU)
}

TEST(BatchedWalk, StaleTagsInInvalidWaysRestoreAsInvalid)
{
    // A snapshot may carry old tags in invalid ways (stamp 0): caches
    // that predate the invalid-tag marker left them there. Restored,
    // those ways must stay invalid: a walk over exactly those lines
    // misses as on a fresh hierarchy, in both walks.
    MemSystemConfig config;
    config.l1.sizeBytes = 4 * 1024;
    config.l2.sizeBytes = 64 * 1024;
    constexpr uint32_t kSamples = 500;
    Rig fresh(config, true);
    const std::string start = streamBytes(fresh.streams);
    const std::vector<MemSampleRequest> fresh_reqs =
        uniformRequests(fresh, kSamples);

    // The lines the walk is about to touch, per core.
    std::vector<std::vector<uint64_t>> lines(config.numCores);
    std::vector<uint64_t> all_lines;
    for (uint32_t c = 0; c < config.numCores; ++c) {
        lines[c].resize(kSamples);
        fresh.streams[c]->nextRuns(lines[c].data(), kSamples);
        all_lines.insert(all_lines.end(), lines[c].begin(), lines[c].end());
    }
    rewindStreams(fresh.streams, start);

    SnapshotWriter w;
    w.beginSection("mems", 1);
    w.putSize(config.numCores);
    for (uint32_t c = 0; c < config.numCores; ++c)
        putStaleCache(w, fresh.mem.l1(c), lines[c]);
    putStaleCache(w, fresh.mem.l2(), all_lines);
    DramModel(config.dram).snapshot(w);
    w.putSize(config.numCores);
    for (uint32_t c = 0; c < config.numCores * 4; ++c)
        w.putDouble(0.0);
    const std::string stale = w.finish();

    std::vector<MemSampleResult> want;
    fresh.mem.tickSample(fresh_reqs, want);
    for (bool batched : {false, true}) {
        Rig rig(config, batched);
        SnapshotReader r(stale);
        ASSERT_TRUE(rig.mem.tryRestore(r));
        std::vector<MemSampleResult> got;
        rig.mem.tickSample(uniformRequests(rig, kSamples), got);
        expectSameResults(want, got);
        for (uint32_t c = 0; c < config.numCores; ++c) {
            EXPECT_EQ(rig.mem.l2().stats(c).misses,
                      fresh.mem.l2().stats(c).misses);
            EXPECT_EQ(rig.mem.l2().ownedLines(c),
                      fresh.mem.l2().ownedLines(c));
        }
    }
}

/** Snapshot round-trip still byte-stable with the kernel enabled. */
TEST(BatchedWalk, SnapshotAgreesAfterBatchedTicks)
{
    MemSystemConfig config;
    config.l1.sizeBytes = 4 * 1024;
    config.l2.sizeBytes = 64 * 1024;
    Rig rig(config, true);
    std::vector<MemSampleRequest> reqs(config.numCores);
    for (uint32_t c = 0; c < config.numCores; ++c)
        reqs[c] = MemSampleRequest{c, rig.streams[c].get(), 700};
    std::vector<MemSampleResult> res;
    rig.mem.tickSample(reqs, res);
    const std::string bytes = stateBytes(rig.mem, rig.streams);

    SnapshotReader r(bytes);
    MemSystem restored(config);
    ASSERT_TRUE(restored.tryRestore(r));
    SnapshotWriter w;
    restored.snapshot(w);
    for (const auto &s : rig.streams)
        ASSERT_TRUE(s->tryRestore(r));
    for (const auto &s : rig.streams)
        s->snapshot(w);
    EXPECT_EQ(w.finish(), bytes);
}

} // namespace
} // namespace dora
