/**
 * @file
 * Deterministic fuzz smoke tests for every deserializer that accepts
 * bytes from outside the process: snapshot restore paths
 * (QuantileSketch, RunningStat), FleetShardAggregate blobs, the
 * supervisor/worker wire-frame parser, the results journal, run-
 * measurement payloads, and ModelBundle text blobs.
 *
 * The contract under test is uniform: feed a corrupted input and the
 * decoder must return failure (or truncate, for the journal) without
 * crashing, hanging, or reading out of bounds. Two corpora per
 * target, both seeded from a fixed Rng so failures replay exactly:
 *
 *   - single-bit flips of a valid serialized blob (the torn-write /
 *     cosmic-ray shape checksums exist to catch), and
 *   - random byte strings of assorted lengths (the desynced-stream
 *     shape).
 *
 * These run in the normal ctest suite and therefore also under
 * scripts/run_sanitized_tests.sh, where ASan/UBSan turn any silent
 * out-of-bounds read into a hard failure.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/snapshot.hh"
#include "dora/model_bundle.hh"
#include "exec/proc/journal.hh"
#include "exec/proc/wire.hh"
#include "fleet/aggregate.hh"
#include "runner/experiment.hh"
#include "runner/measurement_io.hh"
#include "stats/quantile_sketch.hh"
#include "stats/running_stat.hh"

namespace dora
{
namespace
{

std::string
randomBytes(Rng &rng, size_t n)
{
    std::string bytes(n, '\0');
    for (size_t i = 0; i < n; ++i)
        bytes[i] = static_cast<char>(rng.below(256));
    return bytes;
}

std::string
flipBit(const std::string &blob, size_t bit)
{
    std::string mutant = blob;
    mutant[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(mutant[bit / 8]) ^ (1u << (bit % 8)));
    return mutant;
}

/**
 * Every single-bit mutant of @p blob, sampled down to @p max_mutants
 * when the blob is large; always includes truncations at a few
 * lengths (torn writes are prefixes, not bit flips).
 */
std::vector<std::string>
mutantCorpus(const std::string &blob, Rng &rng,
             size_t max_mutants = 4096)
{
    std::vector<std::string> corpus;
    const size_t bits = blob.size() * 8;
    if (bits <= max_mutants) {
        for (size_t bit = 0; bit < bits; ++bit)
            corpus.push_back(flipBit(blob, bit));
    } else {
        for (size_t i = 0; i < max_mutants; ++i)
            corpus.push_back(flipBit(blob, rng.below(bits)));
    }
    for (size_t cut = 0; cut < 8; ++cut)
        corpus.push_back(blob.substr(0, rng.below(blob.size() + 1)));
    corpus.push_back("");
    return corpus;
}

RunMeasurement
sampleMeasurement(Rng &rng)
{
    RunMeasurement m;
    m.workload = "amazon/kernel:bfs";
    m.governor = "dora";
    m.loadTimeSec = rng.uniform(0.5, 8.0);
    m.pageFinished = rng.chance(0.9);
    m.meetsDeadline = rng.chance(0.7);
    m.censored = !m.pageFinished;
    m.energyJ = rng.uniform(1.0, 30.0);
    return m;
}

} // namespace

// ------------------------------------------------------------------ //
// Snapshot restore paths                                              //
// ------------------------------------------------------------------ //

TEST(FuzzSmoke, QuantileSketchRestoreSurvivesCorruption)
{
    Rng rng("fuzz:sketch");
    QuantileSketch seed;
    for (int i = 0; i < 500; ++i)
        seed.push(rng.uniform(0.0, 10.0));
    SnapshotWriter w;
    seed.snapshot(w);
    const std::string blob = w.finish();

    // The pristine blob must still round-trip.
    {
        SnapshotReader r(blob);
        QuantileSketch restored;
        ASSERT_TRUE(r.checksumOk());
        ASSERT_TRUE(restored.tryRestore(r));
    }
    for (const std::string &mutant : mutantCorpus(blob, rng)) {
        SnapshotReader r(mutant);
        QuantileSketch victim;
        if (!victim.tryRestore(r)) {
            // Rejected: victim must still be usable.
            victim.push(1.0);
        }
    }
    for (int i = 0; i < 256; ++i) {
        const std::string junk = randomBytes(rng, rng.below(512));
        SnapshotReader r(junk);
        QuantileSketch victim;
        EXPECT_FALSE(victim.tryRestore(r)) << "junk blob accepted";
    }
}

TEST(FuzzSmoke, RunningStatRestoreSurvivesCorruption)
{
    Rng rng("fuzz:runningstat");
    RunningStat seed;
    for (int i = 0; i < 100; ++i)
        seed.push(rng.gaussian(5.0, 2.0));
    SnapshotWriter w;
    seed.snapshot(w);
    const std::string blob = w.finish();

    for (const std::string &mutant : mutantCorpus(blob, rng)) {
        SnapshotReader r(mutant);
        RunningStat victim;
        (void)victim.tryRestore(r);
        victim.push(1.0);
    }
    for (int i = 0; i < 256; ++i) {
        const std::string junk = randomBytes(rng, rng.below(256));
        SnapshotReader r(junk);
        RunningStat victim;
        EXPECT_FALSE(victim.tryRestore(r));
    }
}

// ------------------------------------------------------------------ //
// Fleet aggregate blobs                                               //
// ------------------------------------------------------------------ //

TEST(FuzzSmoke, FleetAggregateDeserializeSurvivesCorruption)
{
    Rng rng("fuzz:aggregate");
    FleetShardAggregate seed = FleetShardAggregate::forChunk(2, 0);
    for (uint64_t device = 0; device < 4; ++device)
        for (size_t gov = 0; gov < 2; ++gov)
            seed.pushCell(gov, device % 2 ? "hot" : "cold", gov == 0,
                          sampleMeasurement(rng));
    const std::string blob = seed.serialize();

    FleetShardAggregate restored;
    ASSERT_TRUE(restored.tryDeserialize(blob));
    EXPECT_EQ(restored.digest(), seed.digest());

    for (const std::string &mutant : mutantCorpus(blob, rng)) {
        FleetShardAggregate victim;
        (void)victim.tryDeserialize(mutant);
    }
    for (int i = 0; i < 256; ++i) {
        FleetShardAggregate victim;
        EXPECT_FALSE(
            victim.tryDeserialize(randomBytes(rng, rng.below(1024))));
    }
}

// ------------------------------------------------------------------ //
// Wire frames                                                         //
// ------------------------------------------------------------------ //

TEST(FuzzSmoke, FrameParserSurvivesCorruptedFrames)
{
    Rng rng("fuzz:wire");
    Frame frame;
    frame.type = FrameType::Result;
    frame.unit = 42;
    frame.attempt = 2;
    frame.payload = randomBytes(rng, 200);
    const std::string wire = encodeFrame(frame);

    // Pristine frame round-trips.
    {
        FrameParser parser;
        parser.feed(wire.data(), wire.size());
        Frame out;
        ASSERT_TRUE(parser.next(&out));
        EXPECT_EQ(out.unit, frame.unit);
        EXPECT_EQ(out.payload, frame.payload);
        EXPECT_FALSE(parser.corrupted());
    }
    for (const std::string &mutant : mutantCorpus(wire, rng)) {
        FrameParser parser;
        parser.feed(mutant.data(), mutant.size());
        Frame out;
        // Drain until exhaustion; a flipped bit either corrupts the
        // stream or (flips inside the payload cannot be distinguished
        // from data by magic alone) fails the checksum — both paths
        // must terminate.
        while (parser.next(&out)) {
        }
    }
    for (int i = 0; i < 128; ++i) {
        FrameParser parser;
        const std::string junk = randomBytes(rng, rng.below(2048));
        // Fragmented delivery: pipes hand the parser arbitrary chunks.
        size_t pos = 0;
        while (pos < junk.size()) {
            const size_t n =
                std::min(junk.size() - pos, 1 + rng.below(97));
            parser.feed(junk.data() + pos, n);
            pos += n;
            Frame out;
            while (parser.next(&out)) {
            }
        }
    }
}

TEST(FuzzSmoke, FrameParserByteAtATimeMatchesBulkFeed)
{
    Rng rng("fuzz:wire2");
    std::string stream;
    for (uint64_t unit = 0; unit < 5; ++unit) {
        Frame f;
        f.type = FrameType::Heartbeat;
        f.unit = unit;
        f.attempt = 1;
        f.payload = randomBytes(rng, rng.below(64));
        stream += encodeFrame(f);
    }
    FrameParser parser;
    uint64_t decoded = 0;
    for (char byte : stream) {
        parser.feed(&byte, 1);
        Frame out;
        while (parser.next(&out)) {
            EXPECT_EQ(out.unit, decoded);
            ++decoded;
        }
    }
    EXPECT_EQ(decoded, 5u);
    EXPECT_FALSE(parser.corrupted());
}

// ------------------------------------------------------------------ //
// Results journal                                                     //
// ------------------------------------------------------------------ //

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes;
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(FuzzSmoke, JournalOpenSurvivesCorruptedFiles)
{
    Rng rng("fuzz:journal");
    const std::string dir = ::testing::TempDir();
    const std::string golden = dir + "fuzz_journal_golden.bin";
    const std::string victim = dir + "fuzz_journal_victim.bin";
    constexpr uint64_t kHash = 0xD0DAD0DAull;
    constexpr uint64_t kUnits = 16;

    std::remove(golden.c_str());
    {
        ResultsJournal journal;
        ASSERT_TRUE(journal.open(golden, kHash, kUnits));
        ASSERT_TRUE(journal.append(0, "alpha"));
        ASSERT_TRUE(journal.append(1, randomBytes(rng, 64)));
        ASSERT_TRUE(journal.append(2, "gamma"));
    }
    const std::string blob = slurp(golden);
    ASSERT_FALSE(blob.empty());

    // 160 random single-bit flips: open() must either refuse (header
    // damage), or succeed having dropped/truncated damaged records —
    // and an accepted journal must still take appends.
    for (int i = 0; i < 160; ++i) {
        spit(victim, flipBit(blob, rng.below(blob.size() * 8)));
        ResultsJournal journal;
        if (journal.open(victim, kHash, kUnits)) {
            EXPECT_LE(journal.loaded().size(), 3u);
            EXPECT_TRUE(journal.append(3, "delta"));
        } else {
            EXPECT_FALSE(journal.error().empty());
        }
    }
    // Truncations: every prefix is at worst a torn tail.
    for (int i = 0; i < 32; ++i) {
        spit(victim, blob.substr(0, rng.below(blob.size() + 1)));
        ResultsJournal journal;
        (void)journal.open(victim, kHash, kUnits);
    }
    // Random garbage files.
    for (int i = 0; i < 32; ++i) {
        spit(victim, randomBytes(rng, rng.below(512)));
        ResultsJournal journal;
        (void)journal.open(victim, kHash, kUnits);
    }
    std::remove(golden.c_str());
    std::remove(victim.c_str());
}

// ------------------------------------------------------------------ //
// Run-measurement payloads and model-bundle text                      //
// ------------------------------------------------------------------ //

TEST(FuzzSmoke, RunMeasurementDecodeSurvivesCorruption)
{
    Rng rng("fuzz:measurement");
    const std::string blob =
        serializeRunMeasurement(sampleMeasurement(rng));
    RunMeasurement round_trip;
    ASSERT_TRUE(tryDeserializeRunMeasurement(blob, &round_trip));

    for (const std::string &mutant : mutantCorpus(blob, rng)) {
        RunMeasurement out;
        (void)tryDeserializeRunMeasurement(mutant, &out);
    }
    for (int i = 0; i < 256; ++i) {
        RunMeasurement out;
        (void)tryDeserializeRunMeasurement(
            randomBytes(rng, rng.below(256)), &out);
    }
}

TEST(FuzzSmoke, ModelBundleDeserializeSurvivesCorruption)
{
    Rng rng("fuzz:bundle");
    const std::string blob = ModelBundle().serialize();
    ASSERT_FALSE(blob.empty());

    for (const std::string &mutant : mutantCorpus(blob, rng)) {
        std::string diagnostic;
        const ModelBundle out =
            ModelBundle::deserialize(mutant, &diagnostic);
        // A mutated blob that parses must also have validated; a
        // rejected one must say why.
        if (!out.ready()) {
            EXPECT_FALSE(diagnostic.empty());
        }
    }
    for (int i = 0; i < 128; ++i) {
        std::string diagnostic;
        const ModelBundle out = ModelBundle::deserialize(
            randomBytes(rng, rng.below(2048)), &diagnostic);
        EXPECT_FALSE(out.ready());
    }
}

} // namespace dora
