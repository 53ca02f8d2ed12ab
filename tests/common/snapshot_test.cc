/**
 * @file
 * Unit tests for the snapshot buffer primitives: typed round trips,
 * checksum validation, and mismatch/corruption rejection.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/snapshot.hh"

namespace dora
{
namespace
{

TEST(Snapshot, ScalarRoundTrip)
{
    SnapshotWriter w;
    w.beginSection("test", 3);
    w.putU8(0xAB);
    w.putU32(0xDEADBEEF);
    w.putU64(0x0123456789ABCDEFull);
    w.putDouble(-0.1);
    w.putBool(true);
    w.putSize(42);
    w.putString("hello");
    const std::string bytes = w.finish();

    SnapshotReader r(bytes);
    ASSERT_TRUE(r.checksumOk());
    ASSERT_TRUE(r.beginSection("test", 3));
    uint8_t u8;
    uint32_t u32;
    uint64_t u64;
    double d;
    bool b;
    size_t sz;
    std::string s;
    ASSERT_TRUE(r.getU8(&u8));
    ASSERT_TRUE(r.getU32(&u32));
    ASSERT_TRUE(r.getU64(&u64));
    ASSERT_TRUE(r.getDouble(&d));
    ASSERT_TRUE(r.getBool(&b));
    ASSERT_TRUE(r.getSize(&sz));
    ASSERT_TRUE(r.getString(&s));
    EXPECT_EQ(u8, 0xAB);
    EXPECT_EQ(u32, 0xDEADBEEFu);
    EXPECT_EQ(u64, 0x0123456789ABCDEFull);
    EXPECT_DOUBLE_EQ(d, -0.1);
    EXPECT_TRUE(b);
    EXPECT_EQ(sz, 42u);
    EXPECT_EQ(s, "hello");
    EXPECT_TRUE(r.atEnd());
}

TEST(Snapshot, VectorRoundTripIncludingEmpty)
{
    SnapshotWriter w;
    w.beginSection("vect", 1);
    w.putDoubles({1.5, -2.25, 0.0});
    w.putU64s({});
    w.putU32s({7, 8});
    const std::string bytes = w.finish();

    SnapshotReader r(bytes);
    ASSERT_TRUE(r.checksumOk());
    ASSERT_TRUE(r.beginSection("vect", 1));
    std::vector<double> ds;
    std::vector<uint64_t> u64s;
    std::vector<uint32_t> u32s;
    ASSERT_TRUE(r.getDoubles(&ds));
    ASSERT_TRUE(r.getU64s(&u64s));
    ASSERT_TRUE(r.getU32s(&u32s));
    EXPECT_EQ(ds, (std::vector<double>{1.5, -2.25, 0.0}));
    EXPECT_TRUE(u64s.empty());
    EXPECT_EQ(u32s, (std::vector<uint32_t>{7, 8}));
    EXPECT_TRUE(r.atEnd());
}

TEST(Snapshot, DoubleBitPatternIsExact)
{
    // Denormals, signed zero, huge magnitudes: the raw-bits encoding
    // must reproduce each exactly, not via a decimal round trip.
    const std::vector<double> values = {5e-324, -0.0, 1e308,
                                        0.1 + 0.2};
    SnapshotWriter w;
    w.beginSection("bits", 1);
    w.putDoubles(values);
    const std::string bytes = w.finish();
    SnapshotReader r(bytes);
    ASSERT_TRUE(r.beginSection("bits", 1));
    std::vector<double> back;
    ASSERT_TRUE(r.getDoubles(&back));
    ASSERT_EQ(back.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(std::memcmp(&back[i], &values[i], sizeof(double)), 0);
}

TEST(Snapshot, TypeMismatchFailsAndLeavesOutUntouched)
{
    SnapshotWriter w;
    w.beginSection("type", 1);
    w.putU32(5);
    const std::string bytes = w.finish();

    SnapshotReader r(bytes);
    ASSERT_TRUE(r.beginSection("type", 1));
    uint64_t u64 = 99;
    EXPECT_FALSE(r.getU64(&u64));  // wrote u32, asked for u64
    EXPECT_EQ(u64, 99u);
    // A failed read does not consume; the right-typed read still works.
    uint32_t u32 = 0;
    EXPECT_TRUE(r.getU32(&u32));
    EXPECT_EQ(u32, 5u);
}

TEST(Snapshot, SectionTagAndVersionMismatchRejected)
{
    SnapshotWriter w;
    w.beginSection("soc ", 2);
    const std::string bytes = w.finish();

    SnapshotReader wrong_tag(bytes);
    EXPECT_FALSE(wrong_tag.beginSection("mem ", 2));
    SnapshotReader wrong_version(bytes);
    EXPECT_FALSE(wrong_version.beginSection("soc ", 1));
    SnapshotReader ok(bytes);
    EXPECT_TRUE(ok.beginSection("soc ", 2));
}

TEST(Snapshot, CorruptionDetectedByChecksum)
{
    SnapshotWriter w;
    w.beginSection("corr", 1);
    w.putU64(123456789);
    std::string bytes = w.finish();
    ASSERT_TRUE(SnapshotReader(bytes).checksumOk());

    std::string flipped = bytes;
    flipped[flipped.size() / 2] =
        static_cast<char>(flipped[flipped.size() / 2] ^ 0x40);
    EXPECT_FALSE(SnapshotReader(flipped).checksumOk());
}

TEST(Snapshot, TruncationDetected)
{
    SnapshotWriter w;
    w.beginSection("trnc", 1);
    w.putU64(1);
    w.putU64(2);
    const std::string bytes = w.finish();

    for (size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::string prefix = bytes.substr(0, cut);
        SnapshotReader r(prefix);
        EXPECT_FALSE(r.checksumOk()) << "cut at " << cut;
    }
}

TEST(Snapshot, ExhaustionFailsCleanly)
{
    SnapshotWriter w;
    w.beginSection("exha", 1);
    w.putU8(1);
    const std::string bytes = w.finish();
    SnapshotReader r(bytes);
    ASSERT_TRUE(r.beginSection("exha", 1));
    uint8_t v;
    ASSERT_TRUE(r.getU8(&v));
    EXPECT_TRUE(r.atEnd());
    EXPECT_FALSE(r.getU8(&v));  // nothing left but the checksum
}

} // namespace
} // namespace dora
