/**
 * @file
 * Unit tests for the training-sample payload encoding.
 */

#include <gtest/gtest.h>

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

TEST(SampleIo, RoundTripPreservesValues)
{
    // Bit-exact: a resumed campaign must refit the very same doubles.
    for (const TrainingSample &original : makeSamples()) {
        TrainingSample parsed;
        ASSERT_TRUE(tryDeserializeTrainingSample(
            serializeTrainingSample(original), &parsed));
        EXPECT_EQ(parsed.x, original.x);
        EXPECT_EQ(parsed.busMhz, original.busMhz);
        EXPECT_EQ(parsed.voltage, original.voltage);
        EXPECT_EQ(parsed.loadTimeSec, original.loadTimeSec);
        EXPECT_EQ(parsed.meanPowerW, original.meanPowerW);
        EXPECT_EQ(parsed.meanTempC, original.meanTempC);
    }
}

} // namespace
} // namespace dora
