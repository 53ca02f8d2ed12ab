/**
 * @file
 * Tests for the observability layer: metrics-registry semantics,
 * warn-suppression surfacing, golden JSONL / Chrome trace renderings,
 * and byte-identity of every trace artifact across `--jobs` counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "dora/trainer.hh"
#include "harness/comparison.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runner/workload.hh"
#include "workloads/kernel.hh"

namespace dora
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(Metrics, CounterAddsAndResets)
{
    MetricCounter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeHoldsLastValue)
{
    MetricGauge g;
    g.set(3.5);
    g.set(-1.25);
    EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(Metrics, HistogramTracksMoments)
{
    MetricHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    h.record(1.0);
    h.record(4.0);
    h.record(16.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 21.0);
    EXPECT_DOUBLE_EQ(h.mean(), 7.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 16.0);
    // Power-of-two buckets offset by 32: ilogb(1)=0, ilogb(4)=2,
    // ilogb(16)=4.
    EXPECT_EQ(h.bucketCount(32), 1u);
    EXPECT_EQ(h.bucketCount(34), 1u);
    EXPECT_EQ(h.bucketCount(36), 1u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, HistogramNonPositiveLandsInFirstBucket)
{
    MetricHistogram h;
    h.record(0.0);
    h.record(-7.0);
    h.record(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.bucketCount(0), 3u);
    EXPECT_EQ(h.count(), 3u);
}

TEST(Metrics, RegistryRefsAreStableAndSnapshotSorted)
{
    MetricsRegistry &reg = MetricsRegistry::global();
    MetricCounter &b = reg.counter("obstest.bbb");
    MetricCounter &a = reg.counter("obstest.aaa");
    EXPECT_EQ(&reg.counter("obstest.bbb"), &b);
    a.add(1);
    b.add(2);
    const std::string snap = reg.snapshotText();
    const size_t pos_a = snap.find("counter obstest.aaa 1");
    const size_t pos_b = snap.find("counter obstest.bbb 2");
    ASSERT_NE(pos_a, std::string::npos);
    ASSERT_NE(pos_b, std::string::npos);
    EXPECT_LT(pos_a, pos_b);
    // Identical state renders to identical text.
    EXPECT_EQ(snap, reg.snapshotText());
}

TEST(Metrics, SnapshotSurfacesWarnSuppression)
{
    resetWarnSuppression();
    setLogLevel(LogLevel::Quiet);
    for (int i = 0; i < 9; ++i)
        warn("obs-test spam %d", i);
    setLogLevel(LogLevel::Normal);
    const std::string snap =
        MetricsRegistry::global().snapshotText();
    EXPECT_NE(snap.find("log.warn.suppressed{key=\"obs-test spam %d\"}"
                        " 4"),
              std::string::npos)
        << snap;
    EXPECT_NE(snap.find("log.warn.suppressed_total 4"),
              std::string::npos);
    resetWarnSuppression();
}

TEST(TraceValueJson, RendersEveryKind)
{
    EXPECT_EQ(TraceValue(uint64_t{7}).toJson(), "7");
    EXPECT_EQ(TraceValue(size_t{9}).toJson(), "9");
    EXPECT_EQ(TraceValue(-3).toJson(), "-3");
    EXPECT_EQ(TraceValue(true).toJson(), "true");
    EXPECT_EQ(TraceValue(false).toJson(), "false");
    EXPECT_EQ(TraceValue(0.5).toJson(), "0.5");
    EXPECT_EQ(TraceValue("plain").toJson(), "\"plain\"");
    EXPECT_EQ(TraceValue(std::string("q\"\\\n")).toJson(),
              "\"q\\\"\\\\\\n\"");
    EXPECT_EQ(
        TraceValue(std::numeric_limits<double>::infinity()).toJson(),
        "null");
}

TEST(RunTraceJsonl, GoldenRendering)
{
    RunTrace t("amazon+stream|DORA");
    t.setMeta("governor", "DORA");
    t.setMeta("page_salt", uint64_t{123});
    t.instant(1.5, "governor", "decide", {{"requested", size_t{3}}});
    t.begin(2.0, "page", "phase", {{"phase", "fetch"}});
    t.end(2.25, "page", "phase");
    t.complete(0.0, 2.0, "run", "warmup");
    const std::string expected =
        "{\"run\":\"amazon+stream|DORA\",\"meta\":{"
        "\"governor\":\"DORA\",\"page_salt\":123}}\n"
        "{\"run\":\"amazon+stream|DORA\",\"t\":1.5,\"ph\":\"i\","
        "\"cat\":\"governor\",\"name\":\"decide\","
        "\"args\":{\"requested\":3}}\n"
        "{\"run\":\"amazon+stream|DORA\",\"t\":2,\"ph\":\"B\","
        "\"cat\":\"page\",\"name\":\"phase\","
        "\"args\":{\"phase\":\"fetch\"}}\n"
        "{\"run\":\"amazon+stream|DORA\",\"t\":2.25,\"ph\":\"E\","
        "\"cat\":\"page\",\"name\":\"phase\"}\n"
        "{\"run\":\"amazon+stream|DORA\",\"t\":0,\"dur\":2,"
        "\"ph\":\"X\",\"cat\":\"run\",\"name\":\"warmup\"}\n";
    EXPECT_EQ(t.toJsonl(), expected);
    ASSERT_NE(t.meta("page_salt"), nullptr);
    EXPECT_EQ(t.meta("page_salt")->u, 123u);
    EXPECT_EQ(t.meta("absent"), nullptr);
}

TEST(TraceSessionFiles, SortedGoldenArtifacts)
{
    const std::string dir =
        ::testing::TempDir() + "obs_golden_session";
    TraceSession session(dir, "golden");
    // Submitted out of key order; finalize() must sort.
    RunTrace second("b|perf");
    second.setMeta("digest", "0x02");
    second.instant(0.25, "governor", "decide");
    session.submit(std::move(second));
    RunTrace first("a|perf");
    first.setMeta("digest", "0x01");
    first.complete(0.0, 0.5, "run", "window", {{"ticks", 500}});
    session.submit(std::move(first));
    EXPECT_EQ(session.runCount(), 2u);
    ASSERT_TRUE(session.finalize());

    const std::string events = slurp(dir + "/events.jsonl");
    const std::string expected_events =
        "{\"run\":\"a|perf\",\"meta\":{\"digest\":\"0x01\"}}\n"
        "{\"run\":\"a|perf\",\"t\":0,\"dur\":0.5,\"ph\":\"X\","
        "\"cat\":\"run\",\"name\":\"window\","
        "\"args\":{\"ticks\":500}}\n"
        "{\"run\":\"b|perf\",\"meta\":{\"digest\":\"0x02\"}}\n"
        "{\"run\":\"b|perf\",\"t\":0.25,\"ph\":\"i\","
        "\"cat\":\"governor\",\"name\":\"decide\"}\n";
    EXPECT_EQ(events, expected_events);

    const std::string chrome = slurp(dir + "/trace.json");
    const std::string expected_chrome =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"a|perf\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"b|perf\"}},\n"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.000,"
        "\"dur\":500000.000,\"cat\":\"run\",\"name\":\"window\","
        "\"args\":{\"ticks\":500}},\n"
        "{\"ph\":\"i\",\"pid\":1,\"tid\":2,\"ts\":250000.000,"
        "\"s\":\"t\",\"cat\":\"governor\",\"name\":\"decide\"}\n"
        "]}\n";
    EXPECT_EQ(chrome, expected_chrome);

    const std::string manifest = slurp(dir + "/manifest.json");
    EXPECT_NE(manifest.find("\"schema\": \"dora-trace-v1\""),
              std::string::npos);
    EXPECT_NE(manifest.find("\"label\": \"golden\""),
              std::string::npos);
    EXPECT_NE(manifest.find("\"runs\": \"2\""), std::string::npos);
    EXPECT_NE(manifest.find("\"events\": \"2\""), std::string::npos);
    EXPECT_NE(manifest.find("\"measurement_digest\": \"0x"),
              std::string::npos);

    // Idempotent: finalizing again rewrites the same bytes.
    ASSERT_TRUE(session.finalize());
    EXPECT_EQ(slurp(dir + "/events.jsonl"), expected_events);
    EXPECT_EQ(slurp(dir + "/trace.json"), expected_chrome);
}

TEST(TraceSessionInstall, ActiveFollowsInstall)
{
    EXPECT_EQ(TraceSession::active(), nullptr);
    TraceSession session(::testing::TempDir() + "obs_install", "x");
    TraceSession::install(&session);
    EXPECT_EQ(TraceSession::active(), &session);
    TraceSession::install(nullptr);
    EXPECT_EQ(TraceSession::active(), nullptr);
}

TEST(ObsGuardFlag, InertWithoutFlag)
{
    const char *argv[] = {"bench", "--jobs", "2"};
    ObsGuard guard(3, const_cast<char **>(argv));
    EXPECT_FALSE(guard.enabled());
    EXPECT_EQ(TraceSession::active(), nullptr);
}

TEST(ObsGuardFlag, ParsesTraceFlagAndFinalizesOnExit)
{
    const std::string dir = ::testing::TempDir() + "obs_guard_out";
    const std::string flag = "--trace=" + dir;
    const char *argv[] = {"bench_fake", flag.c_str()};
    {
        ObsGuard guard(2, const_cast<char **>(argv));
        ASSERT_TRUE(guard.enabled());
        ASSERT_NE(TraceSession::active(), nullptr);
        EXPECT_EQ(TraceSession::active()->dir(), dir);
        RunTrace run("w|g");
        run.instant(0.0, "run", "marker");
        TraceSession::active()->submit(std::move(run));
    }
    EXPECT_EQ(TraceSession::active(), nullptr);
    EXPECT_NE(slurp(dir + "/events.jsonl").find("\"marker\""),
              std::string::npos);
    EXPECT_NE(slurp(dir + "/manifest.json")
                  .find("\"label\": \"bench_fake\""),
              std::string::npos);
}

/**
 * Robustness contract: a SIGTERM'd bench still lands its partial
 * trace, with a `truncated` marker naming the signal, and dies by
 * that signal (conventional exit status). Run in a forked child so
 * the kill cannot take the test runner with it.
 */
TEST(ObsGuardSignal, SigtermFlushesPartialTraceWithTruncatedMarker)
{
    const std::string dir =
        ::testing::TempDir() + "obs_guard_sigterm";
    std::filesystem::remove_all(dir);

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        const std::string flag = "--trace=" + dir;
        const char *argv[] = {"bench_fake", flag.c_str()};
        ObsGuard guard(2, const_cast<char **>(argv));
        if (!guard.enabled())
            ::_exit(2);
        RunTrace run("w|g");
        run.instant(0.0, "run", "partial_marker");
        TraceSession::active()->submit(std::move(run));
        // Die mid-bench: the guard's handler must flush, then
        // re-raise so we exit by the signal, never reaching _exit.
        ::kill(::getpid(), SIGTERM);
        ::_exit(3);
    }

    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child exited normally with status " << status;
    EXPECT_EQ(WTERMSIG(status), SIGTERM);

    const std::string manifest = slurp(dir + "/manifest.json");
    EXPECT_NE(manifest.find("\"truncated\": \"signal 15\""),
              std::string::npos)
        << manifest;
    EXPECT_NE(slurp(dir + "/events.jsonl").find("\"partial_marker\""),
              std::string::npos);
}

/**
 * The campaign counters count every cell once, in the calling
 * process, on every tier — including the harness's process tier,
 * whose cells run in forked workers. The trainer runs on threads only.
 */
TEST(CellCounters, CountEveryCellOnEveryTier)
{
    MetricsRegistry &reg = MetricsRegistry::global();
    MetricCounter &queued = reg.counter("harness.cells_queued");
    MetricCounter &done = reg.counter("harness.cells_done");
    MetricCounter &samples = reg.counter("trainer.samples_collected");

    const std::vector<WorkloadSpec> kernels = {
        WorkloadSets::kernelOnly(KernelCatalog::byName("kmeans")),
        WorkloadSets::kernelOnly(KernelCatalog::byName("srad2")),
    };
    const std::vector<std::string> governors = {"interactive",
                                                "ondemand"};
    TrainerConfig trainer_config;
    trainer_config.experiment.maxLoadSec = 1.0;
    auto pages = WorkloadSets::webpageInclusive();
    pages.resize(2);
    const std::vector<size_t> freqs = {0, 5};

    struct Tier
    {
        unsigned jobs, workers;
    };
    for (const Tier tier : {Tier{1, 0}, Tier{2, 0}, Tier{1, 2}}) {
        const std::string where = "jobs=" + std::to_string(tier.jobs) +
            " workers=" + std::to_string(tier.workers);

        ComparisonHarness harness(ExperimentConfig{}, nullptr, tier.jobs);
        harness.setWorkers(tier.workers);
        const uint64_t queued0 = queued.value();
        const uint64_t done0 = done.value();
        harness.runAll(kernels, governors);
        EXPECT_EQ(queued.value() - queued0, 4u) << where;
        EXPECT_EQ(done.value() - done0, 4u) << where;

        if (tier.workers > 0)
            continue;
        trainer_config.jobs = tier.jobs;
        Trainer trainer(trainer_config);
        const uint64_t samples0 = samples.value();
        trainer.collectSamples(pages, freqs);
        EXPECT_EQ(samples.value() - samples0, 4u) << where;
    }
}

/**
 * The acceptance contract of DESIGN.md §5c: with tracing enabled, a
 * parallel sweep produces the exact bytes of the serial sweep in all
 * three artifacts — the thread schedule never reaches the files.
 */
TEST(TraceDeterminism, ArtifactsByteIdenticalAcrossJobCounts)
{
    auto workloads = WorkloadSets::paperCombinations();
    workloads.resize(4);
    const std::vector<std::string> governors = {"interactive",
                                                "performance"};

    auto sweep = [&](unsigned jobs, const std::string &dir) {
        TraceSession session(dir, "determinism");
        TraceSession::install(&session);
        ComparisonHarness harness(ExperimentConfig{}, nullptr, jobs);
        harness.runAll(workloads, governors);
        TraceSession::install(nullptr);
        ASSERT_TRUE(session.finalize());
        EXPECT_EQ(session.runCount(),
                  workloads.size() * governors.size());
    };

    const std::string serial_dir =
        ::testing::TempDir() + "obs_jobs1";
    const std::string parallel_dir =
        ::testing::TempDir() + "obs_jobs4";
    sweep(1, serial_dir);
    sweep(4, parallel_dir);

    for (const char *file :
         {"/events.jsonl", "/trace.json", "/manifest.json"}) {
        const std::string a = slurp(serial_dir + file);
        const std::string b = slurp(parallel_dir + file);
        ASSERT_FALSE(a.empty()) << file;
        EXPECT_EQ(a, b) << file;
    }
    // The traces carry real content: every run has its measured
    // instant and at least one governor decision.
    const std::string events = slurp(serial_dir + "/events.jsonl");
    EXPECT_NE(events.find("\"name\":\"measured\""),
              std::string::npos);
    EXPECT_NE(events.find("\"name\":\"decide\""), std::string::npos);
    EXPECT_NE(events.find("\"digest\":\"0x"), std::string::npos);
}

} // namespace
} // namespace dora
