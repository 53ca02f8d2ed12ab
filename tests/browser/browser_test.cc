/**
 * @file
 * Unit tests for the page corpus, render cost model, and page-load
 * phase machinery.
 */

#include <gtest/gtest.h>

#include <vector>

#include "browser/page_corpus.hh"
#include "browser/page_load.hh"
#include "browser/render_cost.hh"
#include "power/device_power.hh"
#include "sim/simulator.hh"

namespace dora
{
namespace
{

TEST(PageCorpus, HasEighteenPages)
{
    EXPECT_EQ(PageCorpus::all().size(), 18u);
}

TEST(PageCorpus, TrainTestSplitIsFourteenFour)
{
    EXPECT_EQ(PageCorpus::trainingSet().size(), 14u);
    EXPECT_EQ(PageCorpus::testSet().size(), 4u);
}

TEST(PageCorpus, TableIIIClassCounts)
{
    int low = 0, high = 0;
    for (const auto &page : PageCorpus::all())
        (page.expectedClass == PageComplexity::Low ? low : high)++;
    EXPECT_EQ(low, 12);   // Table III: 12 low-intensity pages
    EXPECT_EQ(high, 6);   // and 6 high-intensity pages
}

TEST(PageCorpus, ByNameFindsEveryPage)
{
    for (const auto &page : PageCorpus::all())
        EXPECT_EQ(&PageCorpus::byName(page.name), &page);
}

TEST(PageCorpus, FeaturesArePositive)
{
    for (const auto &page : PageCorpus::all()) {
        EXPECT_GT(page.features.domNodes, 0.0) << page.name;
        EXPECT_GT(page.features.classAttrs, 0.0) << page.name;
        EXPECT_GT(page.features.hrefAttrs, 0.0) << page.name;
        EXPECT_GT(page.features.aTags, 0.0) << page.name;
        EXPECT_GT(page.features.divTags, 0.0) << page.name;
        EXPECT_GT(page.contentBytes, 1e5) << page.name;
        EXPECT_GT(page.scriptWeight, 0.1) << page.name;
    }
}

TEST(RenderCost, FivePhasesInOrder)
{
    const RenderCostModel cost;
    const auto phases = cost.phases(PageCorpus::byName("amazon"));
    ASSERT_EQ(phases.size(), 5u);
    EXPECT_EQ(phases[0].name, "parse");
    EXPECT_EQ(phases[1].name, "style");
    EXPECT_EQ(phases[2].name, "script");
    EXPECT_EQ(phases[3].name, "layout");
    EXPECT_EQ(phases[4].name, "paint");
}

TEST(RenderCost, WorkIsMonotoneInComplexity)
{
    const RenderCostModel cost;
    EXPECT_GT(cost.totalInstructions(PageCorpus::byName("aliexpress")),
              cost.totalInstructions(PageCorpus::byName("reddit")));
    EXPECT_GT(cost.totalInstructions(PageCorpus::byName("reddit")),
              cost.totalInstructions(PageCorpus::byName("alipay")));
}

TEST(RenderCost, InteractionTermMakesStyleSuperlinear)
{
    RenderCostModel cost;
    WebPage small = PageCorpus::byName("alipay");
    WebPage doubled = small;
    doubled.features.domNodes *= 2.0;
    doubled.features.classAttrs *= 2.0;
    const double w1 = cost.phases(small)[1].instructions;
    const double w2 = cost.phases(doubled)[1].instructions;
    EXPECT_GT(w2, 2.0 * w1);  // nodes x classAttrs product term
}

TEST(RenderCost, PhaseParametersAreSane)
{
    const RenderCostModel cost;
    for (const auto &page : PageCorpus::all()) {
        for (const auto &phase : cost.phases(page)) {
            EXPECT_GT(phase.instructions, 0.0) << page.name;
            EXPECT_GE(phase.parallelFraction, 0.0);
            EXPECT_LE(phase.parallelFraction, 1.0);
            EXPECT_GT(phase.baseCpi, 0.0);
            EXPECT_GT(phase.refsPerInstr, 0.0);
            EXPECT_GE(phase.mlp, 1.0);
            EXPECT_GE(phase.stream.workingSetBytes, 64u * 1024);
        }
    }
}

TEST(HtmlBytes, GrowsWithFeatures)
{
    WebPageFeatures small{100, 50, 10, 10, 30};
    WebPageFeatures big{1000, 500, 100, 100, 300};
    EXPECT_GT(htmlBytes(big), htmlBytes(small));
}

class PageLoadTest : public ::testing::Test
{
  protected:
    PageLoadTest()
        : soc_(Soc::nexus5()),
          power_(DevicePowerConfig{}, LeakageModel::msm8974Truth()),
          sim_(soc_, power_, SimConfig{}),
          load_(PageCorpus::byName("alipay"), RenderCostModel{}, 1)
    {
        sim_.bindTask(0, &load_.mainTask());
        sim_.bindTask(1, &load_.helperTask());
    }

    Soc soc_;
    DevicePower power_;
    Simulator sim_;
    PageLoad load_;
};

TEST_F(PageLoadTest, CompletesAndReportsLoadTime)
{
    sim_.runUntil([&] { return load_.finished(); });
    ASSERT_TRUE(load_.finished());
    EXPECT_GT(load_.loadTimeSec(), 0.05);
    EXPECT_LT(load_.loadTimeSec(), 1.0);  // alipay is tiny
}

TEST_F(PageLoadTest, PhaseNamesProgress)
{
    EXPECT_EQ(load_.currentPhaseName(), "parse");
    sim_.runUntil([&] { return load_.finished(); });
    EXPECT_EQ(load_.currentPhaseName(), "done");
}

TEST_F(PageLoadTest, BothThreadsDoWork)
{
    sim_.runUntil([&] { return load_.finished(); });
    EXPECT_GT(soc_.core(0).totalInstructions(), 0.0);
    EXPECT_GT(soc_.core(1).totalInstructions(), 0.0);
    // Main executes the serial share too, so it does strictly more.
    EXPECT_GT(soc_.core(0).totalInstructions(),
              soc_.core(1).totalInstructions());
}

TEST_F(PageLoadTest, WorkConservation)
{
    sim_.runUntil([&] { return load_.finished(); });
    const RenderCostModel cost;
    const double expected =
        cost.totalInstructions(PageCorpus::byName("alipay"));
    const double executed = soc_.core(0).totalInstructions() +
        soc_.core(1).totalInstructions();
    EXPECT_NEAR(executed, expected, 0.01 * expected);
}

TEST_F(PageLoadTest, ResetRestartsCleanly)
{
    sim_.runUntil([&] { return load_.finished(); });
    const double first = load_.loadTimeSec();
    sim_.reset();
    EXPECT_FALSE(load_.finished());
    sim_.runUntil([&] { return load_.finished(); });
    // Deterministic simulation: identical load time on the rerun.
    EXPECT_NEAR(load_.loadTimeSec(), first, 1e-9);
}

TEST_F(PageLoadTest, SlowerClockMeansSlowerLoad)
{
    sim_.runUntil([&] { return load_.finished(); });
    const double fast = load_.loadTimeSec();
    sim_.reset();
    soc_.setFrequencyIndex(0);
    sim_.runUntil([&] { return load_.finished(); });
    EXPECT_GT(load_.loadTimeSec(), 1.5 * fast);
}

TEST_F(PageLoadTest, FloorNeverOvershootsTheLoad)
{
    // At every tick, elapsed time plus the floor of the work left must
    // not pass the load time the page then reaches; the floor only
    // shrinks and is 0 once the page is done. OPP 0 stalls least per
    // cycle, which makes the floor tightest there.
    for (const size_t opp : {size_t{0}, soc_.freqTable().maxIndex()}) {
        sim_.reset();
        soc_.setFrequencyIndex(opp);
        const double mhz = soc_.operatingPoint().coreMhz;
        EXPECT_EQ(load_.floorRemainingSec(mhz),
                  PageLoad::loadFloorSec(PageCorpus::byName("alipay"),
                                         RenderCostModel{}, mhz));
        std::vector<double> bounds;
        double floor = load_.floorRemainingSec(mhz);
        while (!load_.finished()) {
            bounds.push_back(load_.elapsedSec() + floor);
            sim_.step();
            const double next = load_.floorRemainingSec(mhz);
            EXPECT_LE(next, floor) << "OPP " << opp;
            floor = next;
        }
        EXPECT_EQ(floor, 0.0);
        for (const double bound : bounds)
            EXPECT_LE(bound, load_.loadTimeSec() + 1e-12) << "OPP " << opp;
    }
}

TEST(PageLoadStandalone, HeavierPageLoadsSlower)
{
    auto run = [](const std::string &name) {
        Soc soc = Soc::nexus5();
        DevicePower power(DevicePowerConfig{},
                          LeakageModel::msm8974Truth());
        Simulator sim(soc, power, SimConfig{});
        PageLoad load(PageCorpus::byName(name), RenderCostModel{}, 2);
        sim.bindTask(0, &load.mainTask());
        sim.bindTask(1, &load.helperTask());
        sim.runUntil([&] { return load.finished(); });
        return load.loadTimeSec();
    };
    EXPECT_GT(run("aliexpress"), run("amazon"));
}

} // namespace
} // namespace dora
