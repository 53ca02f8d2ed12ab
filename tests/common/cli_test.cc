/**
 * @file
 * Tests for the shared CLI/env parsing helpers (common/cli.hh) and
 * the silent-misconfiguration regressions they fix:
 *
 *  - a trailing flag with a missing value (`bench --jobs`) used to be
 *    silently ignored by the --jobs/--trace parsers; it must now exit
 *    fatally with a diagnostic naming the flag;
 *  - an empty-but-set environment variable (`export DORA_JOBS=`) used
 *    to behave exactly like an unset one; it must now warn (once,
 *    rate-limited) and then fall back (an empty $DORA_MODEL_CACHE
 *    used to name the file "" and retrain on every run);
 *  - a misspelt flag (`dora-fleet --fleet-devcies 5000`) used to be
 *    ignored; cliRejectUnknownArgs() makes it fatal.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hh"
#include "common/exact_ticks.hh"
#include "common/logging.hh"
#include "exec/thread_pool.hh"
#include "harness/bundle_cache.hh"
#include "obs/trace.hh"

namespace dora
{
namespace
{

/** Owns argv storage so tests can write literal command lines. */
class Argv
{
  public:
    explicit Argv(std::initializer_list<const char *> args)
        : strings_(args.begin(), args.end())
    {
        for (auto &s : strings_)
            pointers_.push_back(s.data());
    }

    int argc() const { return static_cast<int>(pointers_.size()); }
    char **argv() { return pointers_.data(); }

  private:
    std::vector<std::string> strings_;
    std::vector<char *> pointers_;
};

/** Scoped setenv/unsetenv that restores the prior value on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            hadOld_ = true;
            old_ = old;
        }
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (hadOld_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string old_;
    bool hadOld_ = false;
};

TEST(CliFlagValue, AbsentFlagReturnsNullopt)
{
    Argv args({"bench", "--other", "7"});
    EXPECT_FALSE(
        cliFlagValue(args.argc(), args.argv(), "--workers").has_value());
}

TEST(CliFlagValue, SeparatedAndInlineSpellings)
{
    Argv separated({"bench", "--workers", "8"});
    EXPECT_EQ(cliFlagValue(separated.argc(), separated.argv(),
                           "--workers"),
              "8");

    Argv inlined({"bench", "--workers=16"});
    EXPECT_EQ(cliFlagValue(inlined.argc(), inlined.argv(), "--workers"),
              "16");
}

TEST(CliFlagValue, LastOccurrenceWins)
{
    // Wrapper scripts append overrides, so later flags must shadow
    // earlier ones in both spellings.
    Argv args(
        {"bench", "--workers", "2", "--workers=4", "--workers", "6"});
    EXPECT_EQ(cliFlagValue(args.argc(), args.argv(), "--workers"), "6");
}

TEST(CliFlagValue, PrefixIsNotAMatch)
{
    // --workers must not swallow --workers-foo (and vice versa).
    Argv args({"bench", "--workers-foo", "3"});
    EXPECT_FALSE(
        cliFlagValue(args.argc(), args.argv(), "--workers").has_value());
}

TEST(CliRejectUnknownArgs, AcceptsEverySpellingOfKnownFlags)
{
    // Separated and inline values, a value that looks like a flag, and
    // a switch: nothing here is unknown.
    Argv args({"tool", "--seed", "3", "--name=--odd", "--fast",
               "--name", "--seed"});
    cliRejectUnknownArgs(args.argc(), args.argv(), "tool",
                         {"--seed", "--name"}, {"--fast"});
}

using CliDeath = ::testing::Test;

TEST(CliDeath, UnknownArgumentIsFatal)
{
    const auto reject = [](std::initializer_list<const char *> line) {
        Argv args(line);
        cliRejectUnknownArgs(args.argc(), args.argv(), "tool",
                             {"--seed", "--name"}, {"--fast"});
    };
    // A misspelt flag, another tool's flag, a prefix of a known one, a
    // stray positional and a switch given a value.
    EXPECT_EXIT(reject({"tool", "--seed", "1", "--sede", "5"}),
                ::testing::ExitedWithCode(1),
                "tool: unknown argument '--sede'");
    EXPECT_EXIT(reject({"tool", "--jobs", "4"}),
                ::testing::ExitedWithCode(1),
                "tool: unknown argument '--jobs'");
    EXPECT_EXIT(reject({"tool", "--seedling=2"}),
                ::testing::ExitedWithCode(1),
                "tool: unknown argument '--seedling=2'");
    EXPECT_EXIT(reject({"tool", "--seed", "1", "2"}),
                ::testing::ExitedWithCode(1), "tool: unknown argument '2'");
    EXPECT_EXIT(reject({"tool", "--fast=1"}), ::testing::ExitedWithCode(1),
                "tool: unknown argument '--fast=1'");
}

TEST(CliDeath, TrailingFlagWithoutValueIsFatal)
{
    Argv args({"bench", "--workers"});
    EXPECT_EXIT(cliFlagValue(args.argc(), args.argv(), "--workers"),
                ::testing::ExitedWithCode(1), "--workers: missing value");
}

// The historical offenders: each parser silently ignored a trailing
// flag before they were routed through cliFlagValue().

TEST(CliDeath, TrailingJobsFlagIsFatal)
{
    Argv args({"bench", "--jobs"});
    EXPECT_EXIT(jobCountFromArgs(args.argc(), args.argv()),
                ::testing::ExitedWithCode(1), "--jobs: missing value");
}

TEST(CliDeath, TrailingTraceFlagIsFatal)
{
    Argv args({"bench", "--trace"});
    EXPECT_EXIT(ObsGuard(args.argc(), args.argv()),
                ::testing::ExitedWithCode(1), "--trace: missing value");
}

TEST(CliDeath, MalformedIntIsFatal)
{
    EXPECT_EXIT(cliParseInt("4x", "--workers", 0, 1024),
                ::testing::ExitedWithCode(1), "--workers");
    EXPECT_EXIT(cliParseInt("", "--jobs", 1, 1024),
                ::testing::ExitedWithCode(1), "--jobs");
}

TEST(CliDeath, OutOfRangeIntIsFatal)
{
    EXPECT_EXIT(cliParseInt("-1", "--workers", 0, 1024),
                ::testing::ExitedWithCode(1), "--workers");
    EXPECT_EXIT(cliParseInt("5000", "--workers", 0, 1024),
                ::testing::ExitedWithCode(1), "--workers");
}

TEST(CliDeath, MalformedDoubleIsFatal)
{
    EXPECT_EXIT(cliParseDouble("fast", "--fleet-fault-incidence", 0.0,
                               1.0),
                ::testing::ExitedWithCode(1), "--fleet-fault-incidence");
    EXPECT_EXIT(cliParseDouble("1.5", "--fleet-fault-incidence", 0.0,
                               1.0),
                ::testing::ExitedWithCode(1), "--fleet-fault-incidence");
}

TEST(ExactTicksDeathTest, EnvAcceptsOnlyZeroOrOne)
{
    // The mode resolves from the environment once per process, so each
    // case runs in a freshly executed child that has not resolved it.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *value : {"true", "yes", "2"}) {
        ScopedEnv env("DORA_EXACT_TICKS", value);
        EXPECT_EXIT(exactTicksMode(), ::testing::ExitedWithCode(1),
                    "\\$DORA_EXACT_TICKS: '" + std::string(value) +
                        "' is neither 0 \\(adaptive\\) nor 1 "
                        "\\(exact\\)");
    }
    // 0, 1, empty and unset resolve as they always did: exit status
    // 11 reports exact mode, 10 adaptive.
    const auto mode_exit = [] { std::exit(exactTicksMode() ? 11 : 10); };
    for (const auto &[value, status] :
         {std::pair<const char *, int>{"1", 11}, {"0", 10}, {"", 10},
          {nullptr, 10}}) {
        ScopedEnv env("DORA_EXACT_TICKS", value);
        EXPECT_EXIT(mode_exit(), ::testing::ExitedWithCode(status), "")
            << (value ? value : "(unset)");
    }
}

TEST(CliParse, AcceptsValuesInsideRange)
{
    EXPECT_EQ(cliParseInt("8", "--workers", 0, 1024), 8);
    EXPECT_EQ(cliParseInt("1", "--jobs", 1, 1024), 1);
    EXPECT_DOUBLE_EQ(cliParseDouble("0.25", "--x", 0.0, 1.0), 0.25);
}

TEST(EnvNonEmpty, SetValuePassesThrough)
{
    ScopedEnv env("DORA_CLI_TEST_VAR", "17");
    const char *value = envNonEmpty("DORA_CLI_TEST_VAR");
    ASSERT_NE(value, nullptr);
    EXPECT_STREQ(value, "17");
}

TEST(EnvNonEmpty, UnsetReturnsNullWithoutWarning)
{
    ScopedEnv env("DORA_CLI_TEST_VAR", nullptr);
    resetWarnSuppression();
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(envNonEmpty("DORA_CLI_TEST_VAR"), nullptr);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(EnvNonEmpty, EmptyButSetWarnsAndFallsBack)
{
    ScopedEnv env("DORA_CLI_TEST_VAR", "");
    resetWarnSuppression();
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(envNonEmpty("DORA_CLI_TEST_VAR"), nullptr);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("DORA_CLI_TEST_VAR"), std::string::npos) << err;
    EXPECT_NE(err.find("empty"), std::string::npos) << err;
}

TEST(EnvNonEmpty, EmptyWarningIsRateLimited)
{
    ScopedEnv env("DORA_CLI_TEST_VAR", "");
    resetWarnSuppression();
    ::testing::internal::CaptureStderr();
    for (uint64_t i = 0; i < warnEmitLimit() + 10; ++i)
        EXPECT_EQ(envNonEmpty("DORA_CLI_TEST_VAR"), nullptr);
    const std::string err = ::testing::internal::GetCapturedStderr();
    size_t lines = 0;
    for (char c : err)
        lines += (c == '\n');
    // The sink prints warnEmitLimit() warnings plus one final
    // "suppressing further repeats" notice.
    EXPECT_LE(lines, warnEmitLimit() + 1);
    EXPECT_GE(warnSuppressedTotal(), 10u);
    resetWarnSuppression();
}

TEST(EnvNonEmpty, EmptyModelCacheVarUsesTheDefaultPath)
{
    ScopedEnv env("DORA_MODEL_CACHE", "");
    resetWarnSuppression();
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(defaultBundleCachePath(), "dora_models.cache");
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("DORA_MODEL_CACHE"), std::string::npos) << err;
    resetWarnSuppression();
}

TEST(EnvNonEmpty, EmptyTraceVarWarnsAndLeavesTracingOff)
{
    ScopedEnv env("DORA_TRACE", "");
    resetWarnSuppression();
    Argv args({"bench"});
    ::testing::internal::CaptureStderr();
    {
        ObsGuard guard(args.argc(), args.argv());
        EXPECT_FALSE(guard.enabled());
    }
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("DORA_TRACE"), std::string::npos) << err;
    resetWarnSuppression();
}

TEST(EnvNonEmpty, EmptyJobsVarFallsBackToHardware)
{
    ScopedEnv env("DORA_JOBS", "");
    resetWarnSuppression();
    ::testing::internal::CaptureStderr();
    EXPECT_GE(defaultJobCount(), 1u);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("DORA_JOBS"), std::string::npos) << err;
    resetWarnSuppression();
}

} // namespace
} // namespace dora
