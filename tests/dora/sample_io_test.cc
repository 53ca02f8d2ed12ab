/**
 * @file
 * Unit tests for training-sample CSV round-tripping.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "dora/features.hh"
#include "dora/sample_io.hh"

namespace dora
{
namespace
{

std::vector<TrainingSample>
makeSamples()
{
    std::vector<TrainingSample> samples;
    for (int i = 0; i < 3; ++i) {
        TrainingSample s;
        WebPageFeatures page{100.0 + i, 200.0, 30.0, 40.0, 50.0};
        s.x = buildFeatureVector(page, 1.5 * i, 960.0, 333.0, 0.8);
        s.busMhz = 333.0;
        s.voltage = 0.85;
        s.loadTimeSec = 1.0 + 0.25 * i;
        s.meanPowerW = 2.5 + 0.1 * i;
        s.meanTempC = 40.0 + i;
        samples.push_back(std::move(s));
    }
    return samples;
}

TEST(SampleIo, CsvHasHeaderAndRows)
{
    const std::string csv = samplesToCsv(makeSamples());
    EXPECT_EQ(csv.rfind("dom_nodes,", 0), 0u);
    EXPECT_NE(csv.find("mean_temp_c"), std::string::npos);
    // Header + 3 rows.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(SampleIo, RoundTripPreservesValues)
{
    const auto original = makeSamples();
    const auto parsed = samplesFromCsv(samplesToCsv(original));
    ASSERT_EQ(parsed.size(), original.size());
    for (size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(parsed[i].x, original[i].x);
        EXPECT_DOUBLE_EQ(parsed[i].busMhz, original[i].busMhz);
        EXPECT_DOUBLE_EQ(parsed[i].voltage, original[i].voltage);
        EXPECT_DOUBLE_EQ(parsed[i].loadTimeSec,
                         original[i].loadTimeSec);
        EXPECT_DOUBLE_EQ(parsed[i].meanPowerW, original[i].meanPowerW);
        EXPECT_DOUBLE_EQ(parsed[i].meanTempC, original[i].meanTempC);
    }
}

/** @p csv with the first cell of its first data row replaced. */
std::string
withFirstCell(const std::string &csv, const std::string &cell)
{
    const size_t row = csv.find('\n') + 1;
    return csv.substr(0, row) + cell + csv.substr(csv.find(',', row));
}

TEST(SampleIo, CellThatIsNotOneFiniteNumberIsFatal)
{
    // std::stod once aborted the process on "abc" (an uncaught
    // std::invalid_argument) and read "1.5abc" as 1.5.
    const std::string csv = samplesToCsv(makeSamples());
    for (const std::string cell : {"abc", "1.5abc"}) {
        EXPECT_EXIT(samplesFromCsv(withFirstCell(csv, cell)),
                    ::testing::ExitedWithCode(1),
                    "samplesFromCsv: line 2 column 1: '" + cell +
                        "' is not a finite number");
    }
    for (const std::string cell : {"abc", "1.5abc", "", " 1", "nan",
                                   "inf", "1e999", "0x10"}) {
        std::vector<TrainingSample> out;
        std::string error;
        EXPECT_FALSE(trySamplesFromCsv(withFirstCell(csv, cell), &out,
                                       &error))
            << "'" << cell << "'";
        EXPECT_EQ(error.rfind("line 2 column 1: ", 0), 0u) << error;
        EXPECT_TRUE(out.empty());
    }
    std::vector<TrainingSample> out;
    std::string error;
    ASSERT_TRUE(trySamplesFromCsv(withFirstCell(csv, "-1.5e-3"), &out,
                                  &error))
        << error;
    EXPECT_DOUBLE_EQ(out.front().x.front(), -1.5e-3);
}

TEST(SampleIo, FileRoundTrip)
{
    const std::string path = "/tmp/dora_samples_test.csv";
    ASSERT_TRUE(saveSamples(makeSamples(), path));
    const auto loaded = loadSamples(path);
    EXPECT_EQ(loaded.size(), 3u);
    std::remove(path.c_str());
}

TEST(SampleIo, MissingFileYieldsEmpty)
{
    EXPECT_TRUE(loadSamples("/tmp/definitely-not-here.csv").empty());
}

TEST(SampleIo, SaveToBadPathFails)
{
    EXPECT_FALSE(saveSamples(makeSamples(), "/no-such-dir/x.csv"));
}

} // namespace
} // namespace dora
