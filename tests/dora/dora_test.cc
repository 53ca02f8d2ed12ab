/**
 * @file
 * Unit tests for DORA's feature vectors, model bundle, and the
 * Algorithm 1 selection logic.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "dora/features.hh"
#include "dora/model_bundle.hh"
#include "dora/predictive_governor.hh"

namespace dora
{
namespace
{

TEST(Features, TableIOrderAndCount)
{
    // The order the models read is pinned by VectorAssembly.
    EXPECT_EQ(kNumFeatures, 9u);
}

TEST(Features, VectorAssembly)
{
    WebPageFeatures page{100, 200, 300, 400, 500};
    const auto x = buildFeatureVector(page, 5.0, 960.0, 333.0, 0.8);
    ASSERT_EQ(x.size(), kNumFeatures);
    EXPECT_DOUBLE_EQ(x[0], 100.0);
    EXPECT_DOUBLE_EQ(x[4], 500.0);
    EXPECT_DOUBLE_EQ(x[5], 5.0);
    EXPECT_DOUBLE_EQ(x[6], 960.0);
    EXPECT_DOUBLE_EQ(x[7], 333.0);
    EXPECT_DOUBLE_EQ(x[8], 0.8);
}

/** Build a tiny trained bundle from synthetic data. */
ModelBundle
syntheticBundle()
{
    ModelBundle bundle;
    Dataset time_data, power_data;
    // Load time falls with frequency; power rises. Keep it simple and
    // linear in X7 so the test can reason about the predictions.
    for (double mhz : {300.0, 960.0, 1497.6, 2265.6}) {
        for (double mpki : {1.0, 10.0}) {
            WebPageFeatures page{1000, 800, 300, 300, 500};
            auto x = buildFeatureVector(page, mpki, mhz, 800.0, 0.9);
            const double t = 4.0 - 1.2e-3 * mhz + 0.02 * mpki;
            const double p = 1.0 + 1.5e-3 * mhz;
            time_data.add(x, t);
            power_data.add(x, p);
        }
    }
    EXPECT_TRUE(bundle.timeModel.fitGroup(800.0, time_data, 1e-6));
    EXPECT_TRUE(bundle.powerModel.fitGroup(800.0, power_data, 1e-6));
    bundle.leakage = LeakageModel::msm8974Truth().params();
    bundle.leakageFitted = true;
    return bundle;
}

TEST(ModelBundle, ReadyAfterFits)
{
    ModelBundle empty;
    EXPECT_FALSE(empty.ready());
    EXPECT_TRUE(syntheticBundle().ready());
}

TEST(ModelBundle, PredictionsAreClampedPositive)
{
    const ModelBundle bundle = syntheticBundle();
    WebPageFeatures page{1000, 800, 300, 300, 500};
    // Absurd frequency extrapolation cannot go below the clamp floors.
    const auto x = buildFeatureVector(page, 0.0, 50000.0, 800.0, 0.9);
    EXPECT_GE(bundle.predictLoadTime(x, 800.0), 1e-3);
    EXPECT_GE(bundle.predictTotalPower(x, 800.0, 0.0, 25.0), 1e-3);
}

TEST(ModelBundle, LeakageTogglesWithFlag)
{
    const ModelBundle bundle = syntheticBundle();
    WebPageFeatures page{1000, 800, 300, 300, 500};
    const auto x = buildFeatureVector(page, 5.0, 2265.6, 800.0, 0.9);
    const double with_leak =
        bundle.predictTotalPower(x, 800.0, 1.1, 60.0, true);
    const double without =
        bundle.predictTotalPower(x, 800.0, 1.1, 60.0, false);
    EXPECT_GT(with_leak, without + 0.3);
}

TEST(ModelBundle, SerializeRoundTrip)
{
    const ModelBundle bundle = syntheticBundle();
    const ModelBundle copy =
        ModelBundle::deserialize(bundle.serialize());
    EXPECT_TRUE(copy.ready());
    EXPECT_TRUE(copy.leakageFitted);
    WebPageFeatures page{1000, 800, 300, 300, 500};
    const auto x = buildFeatureVector(page, 5.0, 960.0, 800.0, 0.9);
    EXPECT_NEAR(copy.predictLoadTime(x, 800.0),
                bundle.predictLoadTime(x, 800.0), 1e-12);
    EXPECT_NEAR(copy.predictTotalPower(x, 800.0, 0.9, 40.0),
                bundle.predictTotalPower(x, 800.0, 0.9, 40.0), 1e-12);
}

TEST(ModelBundle, SaveAndTryLoad)
{
    const std::string path = "/tmp/dora_bundle_test.cache";
    const ModelBundle bundle = syntheticBundle();
    ASSERT_TRUE(bundle.save(path));
    const ModelBundle loaded = ModelBundle::tryLoad(path);
    EXPECT_TRUE(loaded.ready());
    std::remove(path.c_str());
}

TEST(ModelBundle, TryLoadMissingFileNotReady)
{
    EXPECT_FALSE(ModelBundle::tryLoad("/tmp/definitely-missing").ready());
}

TEST(ModelBundle, TryLoadStaleVersionNotReady)
{
    const std::string path = "/tmp/dora_bundle_stale.cache";
    FILE *f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("dora-model-bundle 0\n", f);
    fclose(f);
    EXPECT_FALSE(ModelBundle::tryLoad(path).ready());
    std::remove(path.c_str());
}

/** Candidate list helpers for selectFrequency(). */
std::vector<CandidateEval>
candidates(std::initializer_list<std::tuple<double, double, bool>> rows)
{
    std::vector<CandidateEval> out;
    size_t idx = 0;
    for (const auto &[t, p, meets] : rows) {
        CandidateEval e;
        e.freqIndex = idx++;
        e.predLoadTimeSec = t;
        e.predPowerW = p;
        e.predPpw = 1.0 / (t * p);
        e.meetsDeadline = meets;
        out.push_back(e);
    }
    return out;
}

TEST(SelectFrequency, DoraPicksBestPpwAmongMeeting)
{
    // idx0 misses; idx1 and idx2 meet; idx1 has the better PPW.
    const auto evals = candidates({
        {4.0, 1.5, false},
        {2.5, 1.8, true},   // ppw 0.222
        {1.5, 3.5, true},   // ppw 0.190
    });
    EXPECT_EQ(PredictiveGovernor::selectFrequency(
                  evals, PredictiveMode::Dora, 2),
              1u);
}

TEST(SelectFrequency, DoraFallsBackToMaxWhenNothingMeets)
{
    const auto evals = candidates({
        {5.0, 1.5, false},
        {4.5, 2.0, false},
        {4.0, 3.0, false},
    });
    EXPECT_EQ(PredictiveGovernor::selectFrequency(
                  evals, PredictiveMode::Dora, 2),
              2u);
}

TEST(SelectFrequency, DlPicksLowestMeeting)
{
    const auto evals = candidates({
        {4.0, 1.5, false},
        {2.9, 1.8, true},
        {1.5, 3.5, true},
    });
    EXPECT_EQ(PredictiveGovernor::selectFrequency(
                  evals, PredictiveMode::DeadlineOnly, 2),
              1u);
}

TEST(SelectFrequency, EeIgnoresDeadline)
{
    // Best PPW is the deadline-missing idx0.
    const auto evals = candidates({
        {4.0, 0.5, false},  // ppw 0.5
        {2.5, 1.8, true},
        {1.5, 3.5, true},
    });
    EXPECT_EQ(PredictiveGovernor::selectFrequency(
                  evals, PredictiveMode::EnergyOnly, 2),
              0u);
}

TEST(SelectFrequency, EmptyEvalsDefaultsToMax)
{
    EXPECT_EQ(PredictiveGovernor::selectFrequency(
                  {}, PredictiveMode::Dora, 13),
              13u);
}

/**
 * Algorithm 1 reduces to DL or EE on well-shaped candidate tables:
 * when the deadline-meeting OPPs form a suffix (load time falls as the
 * clock rises) and predicted PPW is unimodal, DORA picks EE's OPP if
 * that meets the deadline and DL's otherwise. This is why DORA's run in
 * a comparison grid usually repeats a sibling's run tick for tick, and
 * the cell executor lets it ride that sibling (DESIGN.md §5m).
 */
TEST(SelectFrequency, DoraIsDlOrEeOnSuffixDeadlinesAndUnimodalPpw)
{
    size_t as_dl = 0, as_ee = 0;
    for (size_t n = 1; n <= 14; ++n)
        for (size_t peak = 0; peak < n; ++peak)
            for (size_t plateau = 1; peak + plateau <= n; ++plateau)
                for (size_t step = 1; step <= 2; ++step)
                    for (size_t meet = 0; meet <= n; ++meet) {
                        // PPW is flat on [peak, peak + plateau) and
                        // falls away on both sides; step 2 adds ties
                        // on the slopes. OPPs from `meet` on meet the
                        // deadline: none when meet == n, all when 0.
                        std::vector<CandidateEval> evals(n);
                        for (size_t f = 0; f < n; ++f) {
                            const size_t dist = f < peak ? peak - f
                                : f < peak + plateau
                                ? 0
                                : f + 1 - peak - plateau;
                            evals[f].freqIndex = f;
                            evals[f].predPpw =
                                100.0 - static_cast<double>(dist / step);
                            evals[f].meetsDeadline = f >= meet;
                        }
                        const auto pick = [&](PredictiveMode mode) {
                            return PredictiveGovernor::selectFrequency(
                                evals, mode, n - 1);
                        };
                        const size_t dl =
                            pick(PredictiveMode::DeadlineOnly);
                        const size_t ee = pick(PredictiveMode::EnergyOnly);
                        const bool ee_meets = evals[ee].meetsDeadline;
                        ASSERT_EQ(pick(PredictiveMode::Dora),
                                  ee_meets ? ee : dl)
                            << "n=" << n << " peak=" << peak
                            << " plateau=" << plateau << " step=" << step
                            << " meet=" << meet;
                        ++(ee_meets ? as_ee : as_dl);
                    }
    // Both branches of the property are exercised.
    EXPECT_GT(as_dl, 100u);
    EXPECT_GT(as_ee, 100u);
}

TEST(SelectFrequency, BimodalPpwSeparatesDoraFromDlAndEe)
{
    // PPW peaks twice: at the deadline-missing idx0 (EE's pick) and at
    // idx2, the best meeting OPP, which is above DL's lowest meeting
    // idx1. Here DORA repeats neither sibling.
    const auto evals = candidates({
        {4.0, 0.5, false},  // ppw 0.500
        {2.9, 1.8, true},   // ppw 0.192
        {2.0, 1.5, true},   // ppw 0.333
        {1.5, 3.5, true},   // ppw 0.190
    });
    EXPECT_EQ(PredictiveGovernor::selectFrequency(
                  evals, PredictiveMode::Dora, 3),
              2u);
    EXPECT_EQ(PredictiveGovernor::selectFrequency(
                  evals, PredictiveMode::DeadlineOnly, 3),
              1u);
    EXPECT_EQ(PredictiveGovernor::selectFrequency(
                  evals, PredictiveMode::EnergyOnly, 3),
              0u);
}

class PredictiveGovernorTest : public ::testing::Test
{
  protected:
    PredictiveGovernorTest()
        : models_(std::make_shared<const ModelBundle>(syntheticBundle())),
          table_(FreqTable::msm8974())
    {
    }

    GovernorView pageView(double deadline)
    {
        view_.nowSec = 1.0;
        view_.freqIndex = table_.maxIndex();
        view_.freqTable = &table_;
        view_.l2Mpki = 5.0;
        view_.corunUtilization = 0.9;
        view_.temperatureC = 45.0;
        view_.page = &page_;
        view_.deadlineSec = deadline;
        return view_;
    }

    std::shared_ptr<const ModelBundle> models_;
    FreqTable table_;
    WebPageFeatures page_{1000, 800, 300, 300, 500};
    GovernorView view_;
};

TEST_F(PredictiveGovernorTest, NamesMatchModes)
{
    EXPECT_EQ(makeDora(models_).name(), "DORA");
    EXPECT_EQ(makeDl(models_).name(), "DL");
    EXPECT_EQ(makeEe(models_).name(), "EE");
    EXPECT_EQ(makeDoraNoLeakage(models_).name(), "DORA_no_lkg");
}

TEST_F(PredictiveGovernorTest, TracksUtilizationWithoutPageContext)
{
    // With no page in flight the predictive governors defer to an
    // interactive-style utilization tracker: idle load ramps down,
    // saturated load ramps up.
    PredictiveGovernor dora = makeDora(models_);
    GovernorView v;
    v.freqIndex = 8;
    v.freqTable = &table_;
    v.totalUtilization = 0.02;
    v.nowSec = 10.0;
    EXPECT_LT(dora.decideFrequencyIndex(v), 8u);

    PredictiveGovernor dora2 = makeDora(models_);
    v.totalUtilization = 1.0;
    v.freqIndex = 2;
    EXPECT_GT(dora2.decideFrequencyIndex(v), 2u);
}

TEST_F(PredictiveGovernorTest, EvaluatesEveryOperatingPoint)
{
    PredictiveGovernor dora = makeDora(models_);
    dora.decideFrequencyIndex(pageView(3.0));
    EXPECT_EQ(dora.lastEvaluation().size(), table_.size());
}

TEST_F(PredictiveGovernorTest, TighterDeadlineNeverLowersFrequency)
{
    PredictiveGovernor dora = makeDora(models_);
    size_t prev = 0;
    // Sweep the deadline from strict to loose: chosen frequency must be
    // non-increasing (Fig. 11's shape).
    for (double deadline : {1.0, 2.0, 3.0, 4.0, 6.0, 10.0}) {
        const size_t idx = dora.decideFrequencyIndex(pageView(deadline));
        if (deadline > 1.0) {
            EXPECT_LE(idx, prev) << "deadline " << deadline;
        }
        prev = idx;
    }
}

TEST_F(PredictiveGovernorTest, DecisionIntervalDefaultsTo100ms)
{
    EXPECT_DOUBLE_EQ(makeDora(models_).decisionIntervalSec(), 0.1);
    EXPECT_DOUBLE_EQ(makeDora(models_, 0.05).decisionIntervalSec(),
                     0.05);
}

} // namespace
} // namespace dora
