/**
 * @file
 * Tests for the dora-analyze engine (tools/analyze/analyze_engine.hh):
 * scanner and structural-parser unit tests (nested classes,
 * templates, macros, comment/raw-string edges), in-memory spot checks
 * of both rule families, manifest render/parse round-trips, drift
 * detection and --regen-manifest guards, one golden fixture per rule
 * under tests/analyze/fixtures/<rule>/ (a miniature repo tree with a
 * positive case, an allowlisted or out-of-scope case and a NOLINT or
 * annotation case), negative tests that delete a real field-fold /
 * snapshot line and expect a finding, and the zero-findings self-scan
 * scripts/ci.sh enforces.
 */

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze_engine.hh"

namespace fs = std::filesystem;
using dora::analyze::Finding;
using dora::analyze::FunctionDef;
using dora::analyze::LayoutRecord;
using dora::analyze::ScannedUnit;
using dora::analyze::scanUnit;
using dora::analyze::StructDecl;
using dora::analyze::TreeModel;

namespace
{

std::string
repoRoot()
{
    return DORA_SOURCE_DIR;
}

/** One in-memory source file under a virtual repo path. */
struct VFile
{
    std::string path;
    std::string content;
};

TreeModel
modelOf(const std::vector<VFile> &files)
{
    std::vector<ScannedUnit> units;
    units.reserve(files.size());
    for (const auto &f : files)
        units.push_back(scanUnit(f.path, f.content));
    return dora::analyze::buildModel(std::move(units));
}

/**
 * Analyze in-memory files with a self-consistent manifest, so the
 * ser-version rule stays quiet unless a test perturbs the manifest
 * on purpose.
 */
std::vector<Finding>
analyzeFiles(const std::vector<VFile> &files)
{
    const TreeModel model = modelOf(files);
    std::vector<Finding> problems;
    const std::string manifest = dora::analyze::renderManifest(
        dora::analyze::computeLayouts(model, &problems));
    return dora::analyze::analyzeModel(model, &manifest);
}

/** "path:line:rule" keys used to diff against expect.txt. */
std::vector<std::string>
keysOf(const std::vector<Finding> &findings)
{
    std::vector<std::string> keys;
    keys.reserve(findings.size());
    for (const auto &f : findings)
        keys.push_back(f.path + ":" + std::to_string(f.line) + ":" +
                       f.rule);
    std::sort(keys.begin(), keys.end());
    return keys;
}

const StructDecl *
findStruct(const TreeModel &model, const std::string &name)
{
    for (const auto &s : model.structs)
        if (s.name == name)
            return &s;
    return nullptr;
}

std::vector<std::string>
memberNames(const StructDecl &decl)
{
    std::vector<std::string> names;
    for (const auto &m : decl.members)
        names.push_back(m.name);
    return names;
}

const FunctionDef *
findFunction(const TreeModel &model, const std::string &class_name,
             const std::string &name)
{
    for (const auto &f : model.functions)
        if (f.className == class_name && f.name == name)
            return &f;
    return nullptr;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

std::string
readRepoFile(const std::string &rel)
{
    return readFile(fs::path(repoRoot()) / rel);
}

} // namespace

// ------------------------------------------------------------------ //
// Scanner: parallel views, literals, annotations                      //
// ------------------------------------------------------------------ //

TEST(AnalyzeScanner, CodeAndTextViewsStayParallel)
{
    const ScannedUnit u = scanUnit(
        "src/sim/x.cc",
        "int a = 1; // trailing comment\n"
        "const char *s = \"hash(me)\";\n"
        "/* block\n   spans */ int b;\n");
    ASSERT_EQ(u.code.size(), 4u);
    ASSERT_EQ(u.text.size(), 4u);
    for (size_t i = 0; i < u.code.size(); ++i)
        EXPECT_EQ(u.code[i].size(), u.text[i].size()) << "line " << i;
    // Comments are blanked in both views; string contents only in code.
    EXPECT_EQ(u.code[0].find("trailing"), std::string::npos);
    EXPECT_EQ(u.text[0].find("trailing"), std::string::npos);
    EXPECT_EQ(u.code[1].find("hash"), std::string::npos);
    EXPECT_NE(u.code[1].find("const char *s"), std::string::npos);
    EXPECT_NE(u.text[1].find("hash(me)"), std::string::npos);
    EXPECT_EQ(u.code[2].find("block"), std::string::npos);
    EXPECT_NE(u.code[3].find("int b;"), std::string::npos);
}

TEST(AnalyzeScanner, StringLiteralsAreIndexedWithPositions)
{
    const ScannedUnit u = scanUnit(
        "src/sim/x.cc", "f(\"one\", 2); g(\"two\");\nh(\"three\");\n");
    ASSERT_GE(u.strings.size(), 2u);
    ASSERT_EQ(u.strings[0].size(), 2u);
    EXPECT_EQ(u.strings[0][0].value, "one");
    EXPECT_EQ(u.strings[0][0].line, 1);
    EXPECT_EQ(u.strings[0][0].col, 2u);
    EXPECT_EQ(u.strings[0][1].value, "two");
    EXPECT_EQ(u.strings[1][0].value, "three");
}

TEST(AnalyzeScanner, RawStringsAreCapturedAndBlanked)
{
    const ScannedUnit u = scanUnit(
        "src/sim/x.cc",
        "const char *re = R\"(class Fake { int x_; })\";\nint y;\n");
    EXPECT_EQ(u.code[0].find("class Fake"), std::string::npos);
    EXPECT_NE(u.code[1].find("int y;"), std::string::npos);
    ASSERT_FALSE(u.strings[0].empty());
    EXPECT_NE(u.strings[0][0].value.find("class Fake"),
              std::string::npos);
    // The fake declaration inside the literal must not parse.
    const TreeModel m =
        modelOf({{"src/sim/x.cc",
                  "const char *re = R\"(class Fake { int x_; })\";\n"}});
    EXPECT_EQ(findStruct(m, "Fake"), nullptr);
}

TEST(LintScanner, EscapedQuoteStaysInsideString)
{
    const ScannedUnit u = scanUnit(
        "src/sim/x.cc",
        "const char *s = \"a\\\"rand()\\\"b\";\nint tail = 2;\n");
    EXPECT_EQ(u.code[0].find("rand"), std::string::npos);
    EXPECT_NE(u.code[1].find("tail"), std::string::npos);
}

TEST(AnalyzeScanner, AnnotationsParseOnLineAndLineAbove)
{
    const ScannedUnit u = scanUnit(
        "src/sim/x.cc",
        "int a;  // dora:hash-exclude(derived value)\n"
        "// dora:snapshot-exclude(scratch)\n"
        "int b;\n"
        "// dora:hash-exclude()\n"
        "int c;\n");
    EXPECT_TRUE(u.hasAnnotation(1, "hash-exclude"));
    EXPECT_FALSE(u.hasAnnotation(1, "snapshot-exclude"));
    EXPECT_TRUE(u.hasAnnotation(3, "snapshot-exclude"));
    // An empty reason does not count as an annotation.
    EXPECT_FALSE(u.hasAnnotation(5, "hash-exclude"));
}

TEST(AnalyzeScanner, TrailingAnnotationDoesNotBlessTheNextLine)
{
    // Only a comment-only line above counts as "preceding line":
    // a trailing annotation on one member must not leak onto the
    // member declared right below it.
    const ScannedUnit u = scanUnit(
        "src/sim/x.cc",
        "int a;  // dora:snapshot-exclude(config)\n"
        "int b;\n");
    EXPECT_TRUE(u.hasAnnotation(1, "snapshot-exclude"));
    EXPECT_FALSE(u.hasAnnotation(2, "snapshot-exclude"));
}

TEST(AnalyzeScanner, AnnotationInsideStringIsIgnored)
{
    const ScannedUnit u = scanUnit(
        "src/sim/x.cc",
        "const char *s = \"// dora:hash-exclude(nope)\";\nint a;\n");
    EXPECT_FALSE(u.hasAnnotation(1, "hash-exclude"));
    EXPECT_FALSE(u.hasAnnotation(2, "hash-exclude"));
}

TEST(AnalyzeScanner, NolintCollectsRuleSets)
{
    const ScannedUnit u = scanUnit(
        "src/sim/x.cc",
        "int a;  // NOLINT(dora-cov-hash, dora-hyg-assert)\n"
        "// NOLINTNEXTLINE(dora-cov-snapshot)\n"
        "int b;\n"
        "int c;  // NOLINT\n");
    EXPECT_TRUE(u.nolint[0].count("dora-cov-hash"));
    EXPECT_TRUE(u.nolint[0].count("dora-hyg-assert"));
    EXPECT_TRUE(u.nolint[1].empty());
    EXPECT_TRUE(u.nolint[2].count("dora-cov-snapshot"));
    EXPECT_TRUE(u.nolint[3].count("*"));
}

// ------------------------------------------------------------------ //
// Structural parser                                                   //
// ------------------------------------------------------------------ //

TEST(AnalyzeParser, ExtractsMembersAndMethods)
{
    const TreeModel m = modelOf(
        {{"src/sim/a.hh",
          "class Counter\n"
          "{\n"
          "  public:\n"
          "    void tick();\n"
          "    int value() const { return count_; }\n"
          "\n"
          "  private:\n"
          "    int count_ = 0;\n"
          "    double rate_;\n"
          "    std::vector<int> history_;\n"
          "};\n"}});
    const StructDecl *c = findStruct(m, "Counter");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(memberNames(*c),
              (std::vector<std::string>{"count_", "rate_", "history_"}));
    EXPECT_TRUE(c->methods.count("tick"));
    EXPECT_TRUE(c->methods.count("value"));
}

TEST(AnalyzeParser, NestedClassesGetQualifiedNames)
{
    const TreeModel m = modelOf(
        {{"src/sim/a.hh",
          "class Outer\n"
          "{\n"
          "    struct Inner\n"
          "    {\n"
          "        int deep_ = 0;\n"
          "    };\n"
          "    Inner inner_;\n"
          "    int shallow_ = 0;\n"
          "};\n"}});
    const StructDecl *outer = findStruct(m, "Outer");
    const StructDecl *inner = findStruct(m, "Outer::Inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(memberNames(*outer),
              (std::vector<std::string>{"inner_", "shallow_"}));
    EXPECT_EQ(memberNames(*inner), (std::vector<std::string>{"deep_"}));
}

TEST(AnalyzeParser, TemplatesMacrosAndEdgeMembersParse)
{
    const TreeModel m = modelOf(
        {{"src/sim/a.hh",
          "template <typename T>\n"
          "class Holder\n"
          "{\n"
          "    T item_;\n"
          "    std::map<int, std::vector<T>> table_;\n"
          "    alignas(64) std::array<double, 4> lanes_;\n"
          "    uint32_t bits_ : 4;\n"
          "    double grid_[3];\n"
          "    DORA_GUARDED(mu_) int shared_;\n"
          "};\n"}});
    const StructDecl *h = findStruct(m, "Holder");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(memberNames(*h),
              (std::vector<std::string>{"item_", "table_", "lanes_",
                                        "bits_", "grid_", "shared_"}));
}

TEST(AnalyzeParser, FunctionBodiesAreCapturedCrossTu)
{
    const TreeModel m = modelOf(
        {{"src/sim/a.cc",
          "void\n"
          "Counter::tick()\n"
          "{\n"
          "    count_ += 1;\n"
          "}\n"
          "static int\n"
          "helper(int x)\n"
          "{\n"
          "    return x * 2;\n"
          "}\n"}});
    const FunctionDef *tick = findFunction(m, "Counter", "tick");
    ASSERT_NE(tick, nullptr);
    EXPECT_NE(tick->body.find("count_"), std::string::npos);
    const FunctionDef *h = findFunction(m, "", "helper");
    ASSERT_NE(h, nullptr);
    EXPECT_NE(h->body.find("x * 2"), std::string::npos);
}

TEST(AnalyzeParser, ControlFlowAndInitializersAreNotMembers)
{
    const TreeModel m = modelOf(
        {{"src/sim/a.hh",
          "class Machine\n"
          "{\n"
          "    void run()\n"
          "    {\n"
          "        for (int i = 0; i < 4; ++i) {\n"
          "            int local = i;\n"
          "            (void)local;\n"
          "        }\n"
          "        if (state_ == 3) {\n"
          "            state_ = 0;\n"
          "        }\n"
          "    }\n"
          "    int state_ = 0;\n"
          "    static constexpr int kLimit = 8;\n"
          "};\n"}});
    const StructDecl *machine = findStruct(m, "Machine");
    ASSERT_NE(machine, nullptr);
    // Locals never leak into the member list, and static constants
    // are not per-instance state, so only state_ remains.
    EXPECT_EQ(memberNames(*machine),
              (std::vector<std::string>{"state_"}));
    EXPECT_TRUE(machine->methods.count("run"));
}

TEST(AnalyzeParser, PreprocessorAndCommentsAreSkipped)
{
    const TreeModel m = modelOf(
        {{"src/sim/a.hh",
          "#ifndef GUARD\n"
          "#define GUARD\n"
          "struct Plain\n"
          "{\n"
          "#if defined(DORA_EXTRA)\n"
          "    int gated_;\n"
          "#endif\n"
          "    // int commented_;\n"
          "    int real_;\n"
          "};\n"
          "#endif\n"}});
    const StructDecl *p = findStruct(m, "Plain");
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(memberNames(*p),
              (std::vector<std::string>{"gated_", "real_"}));
}

// ------------------------------------------------------------------ //
// Rules (in-memory spot checks)                                       //
// ------------------------------------------------------------------ //

TEST(LintRules, CatalogHasUniqueStableIds)
{
    std::set<std::string> ids;
    for (const auto &rule : dora::analyze::ruleCatalog())
        EXPECT_TRUE(ids.insert(rule.id).second)
            << "duplicate rule id " << rule.id;
    EXPECT_EQ(ids.size(), 16u);
}

TEST(LintRules, WallclockScopesToSimulationCode)
{
    const std::string clock_use =
        "#include <chrono>\n"
        "double t() { return std::chrono::steady_clock::now()"
        ".time_since_epoch().count(); }\n";
    EXPECT_EQ(analyzeFiles({{"src/sim/a.cc", clock_use}}).size(), 1u);
    EXPECT_TRUE(analyzeFiles({{"src/exec/a.cc", clock_use}}).empty());
    EXPECT_TRUE(analyzeFiles({{"src/obs/a.cc", clock_use}}).empty());
    EXPECT_TRUE(analyzeFiles({{"bench/a.cc", clock_use}}).empty());
    EXPECT_TRUE(analyzeFiles({{"tests/sim/a.cc", clock_use}}).empty());
}

TEST(LintRules, StaticFunctionDeclarationsAreNotGlobalState)
{
    const std::string decls =
        "class T {\n"
        "    static T make();\n"
        "    static std::vector<int>\n"
        "    split(const std::string &text);\n"
        "};\n"
        "static int helper(int x) { return x; }\n";
    EXPECT_TRUE(analyzeFiles({{"src/sim/a.hh", decls}}).empty());
}

TEST(LintRules, MutableStaticIsFlaggedEvenMidLine)
{
    const auto findings = analyzeFiles(
        {{"src/sim/a.cc",
          "void tick() { static double last; last += 1.0; }\n"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "dora-conc-global-state");
}

TEST(LintRules, GuardedAndAtomicGlobalsPass)
{
    EXPECT_TRUE(analyzeFiles({{"src/sim/a.cc",
                               "std::atomic<int> g_n{0};\n"
                               "Mutex g_mu;\n"
                               "std::map<int, int> g_m GUARDED_BY(g_mu);\n"}})
                    .empty());
}

TEST(LintRules, ConfigHashRuleNeedsBothTokens)
{
    const std::string clock_only =
        "double t() { return time(nullptr); }\n";
    const std::string both =
        "unsigned long experimentConfigHash();\n" + clock_only;
    EXPECT_TRUE(analyzeFiles({{"bench/a.cc", clock_only}}).empty());
    const auto findings = analyzeFiles({{"bench/a.cc", both}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "dora-det-confighash");
    EXPECT_EQ(findings[0].line, 2);
}

TEST(LintRules, SnprintfIsNotAStreamWrite)
{
    EXPECT_TRUE(
        analyzeFiles(
            {{"src/sim/a.cc",
              "void f(char *b) { std::snprintf(b, 4, \"x\"); }\n"}})
            .empty());
}

TEST(LintRules, CatchAllAcceptsRethrowAcrossLines)
{
    const std::string ok =
        "void g() {\n"
        "    try { r(); } catch (...) {\n"
        "        cleanup();\n"
        "        throw;\n"
        "    }\n"
        "}\n";
    EXPECT_TRUE(analyzeFiles({{"src/sim/a.cc", ok}}).empty());
    const std::string bad =
        "void g() {\n"
        "    try { r(); } catch (...) {\n"
        "        cleanup();\n"
        "    }\n"
        "}\n";
    const auto findings = analyzeFiles({{"src/sim/a.cc", bad}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "dora-hyg-catch-all");
    EXPECT_EQ(findings[0].line, 2);
}

TEST(LintRules, UncheckedTryFlagsStatementInitialCallsOnly)
{
    const std::string bad =
        "void f(SnapshotReader &r, Sim &sim) {\n"
        "    sim.tryRestore(r);\n"
        "}\n";
    const auto findings = analyzeFiles({{"src/sim/a.cc", bad}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "dora-rob-unchecked-try");
    EXPECT_EQ(findings[0].line, 2);

    const std::string ok =
        "bool f(SnapshotReader &r, Sim &sim) {\n"
        "    const bool warm =\n"
        "        sim.tryRestore(r);\n"
        "    if (!tryDeserialize(t, &s))\n"
        "        return false;\n"
        "    return warm && sim.tryRestore(r);\n"
        "}\n"
        "bool\n"
        "tryRestoreAll(SnapshotReader &r)\n"
        "{\n"
        "    return r.atEnd();\n"
        "}\n";
    EXPECT_TRUE(analyzeFiles({{"src/sim/a.cc", ok}}).empty());
    // Out of scope: tests may exercise failure paths however they
    // like.
    EXPECT_TRUE(analyzeFiles({{"tests/sim/a.cc", bad}}).empty());
}

TEST(AnalyzeRules, HashCoverageSeesFoldsAcrossTus)
{
    const VFile header{
        "src/fleet/fleet_spec.hh",
        "struct FleetSpec\n"
        "{\n"
        "    unsigned long seed = 1;\n"
        "    double spread = 0.1;\n"
        "};\n"
        "unsigned long fleetSpecHash(const FleetSpec &spec);\n"};
    const VFile folded{
        "src/fleet/fleet_spec.cc",
        "unsigned long\n"
        "fleetSpecHash(const FleetSpec &spec)\n"
        "{\n"
        "    return mix(spec.seed) ^ mix(spec.spread);\n"
        "}\n"};
    EXPECT_TRUE(analyzeFiles({header, folded}).empty());

    const VFile partial{
        "src/fleet/fleet_spec.cc",
        "unsigned long\n"
        "fleetSpecHash(const FleetSpec &spec)\n"
        "{\n"
        "    return mix(spec.seed);\n"
        "}\n"};
    const auto findings = analyzeFiles({header, partial});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "dora-cov-hash");
    EXPECT_EQ(findings[0].path, "src/fleet/fleet_spec.hh");
    EXPECT_EQ(findings[0].line, 4);
    EXPECT_NE(findings[0].message.find("spread"), std::string::npos);
}

TEST(AnalyzeRules, HashCoverageNeedsTheHashFunction)
{
    // A contract struct whose hash function vanished from the tree is
    // a single loud finding at the declaration, not one per field.
    const VFile header{"src/fleet/fleet_spec.hh",
                       "struct FleetSpec\n"
                       "{\n"
                       "    unsigned long seed = 1;\n"
                       "    double spread = 0.1;\n"
                       "};\n"};
    const auto findings = analyzeFiles({header});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "dora-cov-hash");
    EXPECT_EQ(findings[0].line, 1);
    EXPECT_NE(findings[0].message.find("not found"), std::string::npos);
}

TEST(AnalyzeRules, SnapshotCoverageChecksBothBodies)
{
    const VFile header{
        "src/sim/gizmo.hh",
        "class Gizmo\n"
        "{\n"
        "  public:\n"
        "    void snapshot(SnapshotWriter &w) const;\n"
        "    bool tryRestore(SnapshotReader &r);\n"
        "\n"
        "  private:\n"
        "    double state_ = 0.0;\n"
        "    double lost_ = 0.0;\n"
        "};\n"};
    const VFile bodies{
        "src/sim/gizmo.cc",
        "void\n"
        "Gizmo::snapshot(SnapshotWriter &w) const\n"
        "{\n"
        "    writeDouble(w, state_);\n"
        "}\n"
        "bool\n"
        "Gizmo::tryRestore(SnapshotReader &r)\n"
        "{\n"
        "    return readDouble(r, &state_);\n"
        "}\n"};
    const auto findings = analyzeFiles({header, bodies});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "dora-cov-snapshot");
    EXPECT_EQ(findings[0].line, 9);
    EXPECT_NE(findings[0].message.find("lost_"), std::string::npos);

    // Snapshot-only classes (no tryRestore) are out of scope.
    const VFile one_sided{"src/sim/oneway.hh",
                          "class OneWay\n"
                          "{\n"
                          "    void snapshot(SnapshotWriter &w) const\n"
                          "    {\n"
                          "        writeDouble(w, kept_);\n"
                          "    }\n"
                          "    double kept_ = 0.0;\n"
                          "    double dropped_ = 0.0;\n"
                          "};\n"};
    EXPECT_TRUE(analyzeFiles({one_sided}).empty());
}

TEST(AnalyzeRules, StreamTagRuleGroupsByLiteral)
{
    const VFile a{"src/runner/a.cc",
                  "unsigned long seedA()\n"
                  "{\n"
                  "    return hashLabel(\"tag:\" + label());\n"
                  "}\n"};
    const VFile b{"src/harness/b.cc",
                  "unsigned long seedB()\n"
                  "{\n"
                  "    return hashLabel(\"tag:\" + label());\n"
                  "}\n"};
    const auto findings = analyzeFiles({a, b});
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].rule, "dora-det-streamtag");
    EXPECT_EQ(findings[1].rule, "dora-det-streamtag");

    // Same literal twice in one function at one call shape is still
    // two call sites; a single site is clean.
    EXPECT_TRUE(analyzeFiles({a}).empty());

    // Tests are out of scope: harness doubles reuse tags freely.
    const VFile t{"tests/runner/a_test.cc", a.content};
    EXPECT_TRUE(analyzeFiles({t, b}).empty());
}

TEST(AnalyzeRules, CliFlagRuleRequiresComparisonContext)
{
    const VFile bad{"src/exec/args.cc",
                    "bool has(int argc, char **argv)\n"
                    "{\n"
                    "    return std::strcmp(argv[1], \"--fast\") == 0;\n"
                    "}\n"};
    const auto findings = analyzeFiles({bad});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "dora-cli-flag");

    const VFile label{"src/exec/args.cc",
                      "const char *origin()\n"
                      "{\n"
                      "    return \"--jobs\";\n"
                      "}\n"};
    EXPECT_TRUE(analyzeFiles({label}).empty());

    const VFile helper{"src/common/cli.cc", bad.content};
    EXPECT_TRUE(analyzeFiles({helper}).empty());
}

// ------------------------------------------------------------------ //
// Manifest: render / parse round-trip and drift                       //
// ------------------------------------------------------------------ //

namespace
{

const VFile kWriter{
    "src/sim/pack.cc",
    "void\n"
    "Pack::snapshot(SnapshotWriter &w) const\n"
    "{\n"
    "    w.beginSection(\"pack\", 3);\n"
    "    w.putU64(count_);\n"
    "    w.putDouble(level_);\n"
    "}\n"};

} // namespace

TEST(AnalyzeManifest, RenderParseRoundTripIsLossless)
{
    const TreeModel model = modelOf({kWriter});
    std::vector<Finding> problems;
    const std::vector<LayoutRecord> records =
        dora::analyze::computeLayouts(model, &problems);
    EXPECT_TRUE(problems.empty());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].name, "section:pack");
    EXPECT_EQ(records[0].version, "3");

    const std::string json = dora::analyze::renderManifest(records);
    std::vector<LayoutRecord> parsed;
    std::string error;
    ASSERT_TRUE(dora::analyze::parseManifest(json, &parsed, &error))
        << error;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].name, records[0].name);
    EXPECT_EQ(parsed[0].file, records[0].file);
    EXPECT_EQ(parsed[0].function, records[0].function);
    EXPECT_EQ(parsed[0].version, records[0].version);
    EXPECT_EQ(parsed[0].layout, records[0].layout);
}

TEST(AnalyzeManifest, MalformedJsonIsRejected)
{
    // Truncated input, a non-hex and a short \u escape, and a key with
    // no value: each is a clean rejection, never an exception.
    for (const std::string json :
         {"{\"formats\": [", "{\"x\": \"\\uZZZZ\"}",
          "{\"x\": \"\\u12 4\"}", "{\"x\": }"}) {
        std::vector<LayoutRecord> parsed;
        std::string error;
        bool ok = true;
        EXPECT_NO_THROW(
            ok = dora::analyze::parseManifest(json, &parsed, &error))
            << json;
        EXPECT_FALSE(ok) << json;
        EXPECT_FALSE(error.empty()) << json;
    }
}

TEST(AnalyzeManifest, LayoutDriftUnderSameVersionIsAFinding)
{
    const TreeModel model = modelOf({kWriter});
    std::vector<Finding> problems;
    std::vector<LayoutRecord> records =
        dora::analyze::computeLayouts(model, &problems);
    ASSERT_EQ(records.size(), 1u);

    // Manifest recorded one fewer field under the same version token.
    records[0].layout.pop_back();
    const std::string stale = dora::analyze::renderManifest(records);
    const auto findings = dora::analyze::analyzeModel(model, &stale);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "dora-ser-version");
    EXPECT_EQ(findings[0].path, "src/sim/pack.cc");
    EXPECT_NE(findings[0].message.find("section:pack"),
              std::string::npos);
}

TEST(AnalyzeManifest, VersionBumpBlessesALayoutChange)
{
    const TreeModel model = modelOf({kWriter});
    std::vector<Finding> problems;
    std::vector<LayoutRecord> records =
        dora::analyze::computeLayouts(model, &problems);
    ASSERT_EQ(records.size(), 1u);
    records[0].layout.pop_back();
    records[0].version = "2";  // old layout under the old version
    const std::string old = dora::analyze::renderManifest(records);
    // Layout AND version both differ: stale manifest, regen wanted —
    // but not the silent-drift finding.
    const auto findings = dora::analyze::analyzeModel(model, &old);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("--regen-manifest"),
              std::string::npos);
    EXPECT_EQ(findings[0].message.find("still"), std::string::npos);
}

TEST(AnalyzeManifest, RegenRefusesSameVersionDriftAndUnparseableFiles)
{
    // Regen writes into the tree it scans, so work on a private copy
    // of the fixture: "drft" changed its layout under version 1.
    const fs::path copy =
        fs::path(::testing::TempDir()) /
        ("dora-analyze-regen-" + std::to_string(::getpid()));
    fs::remove_all(copy);
    fs::copy(fs::path(repoRoot()) /
                 "tests/analyze/fixtures/dora-ser-version",
             copy, fs::copy_options::recursive);
    const fs::path manifest = copy / dora::analyze::manifestRelPath();
    const std::vector<std::string> &subdirs =
        dora::analyze::defaultSubdirs();
    const std::string original = readFile(manifest);

    std::ostringstream log;
    EXPECT_FALSE(dora::analyze::regenManifest(copy.string(), subdirs,
                                              false, log));
    EXPECT_NE(log.str().find("section:drft"), std::string::npos)
        << log.str();
    EXPECT_EQ(readFile(manifest), original);

    EXPECT_TRUE(dora::analyze::regenManifest(copy.string(), subdirs,
                                             true, log));
    std::vector<LayoutRecord> records;
    std::string error;
    ASSERT_TRUE(dora::analyze::parseManifest(readFile(manifest),
                                             &records, &error))
        << error;
    EXPECT_EQ(records.size(), 2u);
    const auto findings = dora::analyze::analyzeTree(copy.string(),
                                                     subdirs);
    EXPECT_TRUE(findings.empty())
        << dora::analyze::renderText(findings);

    const std::string garbage = "{\"formats\": [";
    std::ofstream(manifest, std::ios::trunc) << garbage;
    log.str("");
    EXPECT_FALSE(dora::analyze::regenManifest(copy.string(), subdirs,
                                              false, log));
    EXPECT_NE(log.str().find("does not parse"), std::string::npos)
        << log.str();
    EXPECT_EQ(readFile(manifest), garbage);
    fs::remove_all(copy);
}

TEST(AnalyzeManifest, MissingManifestOnlyMattersWithFormats)
{
    const VFile plain{"src/sim/quiet.cc",
                      "int addOne(int x)\n"
                      "{\n"
                      "    return x + 1;\n"
                      "}\n"};
    const TreeModel no_formats = modelOf({plain});
    EXPECT_TRUE(
        dora::analyze::analyzeModel(no_formats, nullptr).empty());

    const TreeModel with_formats = modelOf({kWriter});
    const auto findings =
        dora::analyze::analyzeModel(with_formats, nullptr);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "dora-ser-version");
    EXPECT_EQ(findings[0].path,
              dora::analyze::manifestRelPath());
}

// ------------------------------------------------------------------ //
// Golden fixtures: one directory per rule                             //
// ------------------------------------------------------------------ //

namespace
{

std::vector<std::string>
readExpect(const fs::path &expect_path)
{
    std::ifstream in(expect_path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        lines.push_back(line);
    }
    std::sort(lines.begin(), lines.end());
    return lines;
}

class AnalyzeGolden : public ::testing::TestWithParam<std::string>
{
};

std::vector<std::string>
catalogIds()
{
    std::vector<std::string> ids;
    for (const auto &rule : dora::analyze::ruleCatalog())
        ids.push_back(rule.id);
    return ids;
}

} // namespace

TEST_P(AnalyzeGolden, FixtureFindingsMatchExpectFile)
{
    const fs::path rule_dir =
        fs::path(repoRoot()) / "tests/analyze/fixtures" / GetParam();
    ASSERT_TRUE(fs::exists(rule_dir)) << rule_dir;
    ASSERT_TRUE(fs::exists(rule_dir / "expect.txt")) << rule_dir;
    const auto findings = dora::analyze::analyzeTree(
        rule_dir.string(), dora::analyze::defaultSubdirs());
    EXPECT_EQ(keysOf(findings), readExpect(rule_dir / "expect.txt"));
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, AnalyzeGolden, ::testing::ValuesIn(catalogIds()),
    [](const auto &info) {
        std::string name = info.param;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(AnalyzeGoldenCoverage, EveryRuleHasAFixtureDirectory)
{
    const fs::path fixtures =
        fs::path(repoRoot()) / "tests/analyze/fixtures";
    const std::vector<std::string> ids = catalogIds();
    for (const auto &id : ids)
        EXPECT_TRUE(fs::is_directory(fixtures / id))
            << "missing fixture dir for " << id;
    // The reverse: a fixture directory no catalog id names never runs.
    for (const auto &entry : fs::directory_iterator(fixtures))
        EXPECT_NE(std::find(ids.begin(), ids.end(),
                            entry.path().filename().string()),
                  ids.end())
            << "fixture dir without a rule: " << entry.path();
}

// ------------------------------------------------------------------ //
// Negative tests against the real sources                             //
// ------------------------------------------------------------------ //

namespace
{

/** Remove the first line containing @p needle (must exist). */
std::string
dropLineWith(const std::string &content, const std::string &needle)
{
    std::istringstream in(content);
    std::ostringstream out;
    std::string line;
    bool dropped = false;
    while (std::getline(in, line)) {
        if (!dropped && line.find(needle) != std::string::npos) {
            dropped = true;
            continue;
        }
        out << line << '\n';
    }
    EXPECT_TRUE(dropped) << "no line contains: " << needle;
    return out.str();
}

std::vector<Finding>
findingsFor(const std::vector<Finding> &all, const std::string &rule)
{
    std::vector<Finding> out;
    for (const auto &f : all)
        if (f.rule == rule)
            out.push_back(f);
    return out;
}

} // namespace

TEST(AnalyzeNegative, DeletedFleetSpecFoldIsAFinding)
{
    const std::string hh = readRepoFile("src/fleet/fleet_spec.hh");
    const std::string cc = readRepoFile("src/fleet/fleet_spec.cc");
    EXPECT_TRUE(findingsFor(
                    analyzeFiles({{"src/fleet/fleet_spec.hh", hh},
                                  {"src/fleet/fleet_spec.cc", cc}}),
                    "dora-cov-hash")
                    .empty());

    const std::string broken =
        dropLineWith(cc, "appendHexDouble(text, spec.faultIncidence)");
    const auto findings = findingsFor(
        analyzeFiles({{"src/fleet/fleet_spec.hh", hh},
                      {"src/fleet/fleet_spec.cc", broken}}),
        "dora-cov-hash");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("faultIncidence"),
              std::string::npos);
}

TEST(AnalyzeNegative, DeletedSnapshotMemberIsAFinding)
{
    const std::string hh = readRepoFile("src/mem/dram_model.hh");
    const std::string cc = readRepoFile("src/mem/dram_model.cc");
    EXPECT_TRUE(findingsFor(
                    analyzeFiles({{"src/mem/dram_model.hh", hh},
                                  {"src/mem/dram_model.cc", cc}}),
                    "dora-cov-snapshot")
                    .empty());

    const std::string broken =
        dropLineWith(cc, "w.putDouble(pendingBytes_)");
    const auto findings = findingsFor(
        analyzeFiles({{"src/mem/dram_model.hh", hh},
                      {"src/mem/dram_model.cc", broken}}),
        "dora-cov-snapshot");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("pendingBytes_"),
              std::string::npos);
    EXPECT_NE(findings[0].message.find("snapshot()"),
              std::string::npos);
}

// ------------------------------------------------------------------ //
// Reports and the self-scan                                           //
// ------------------------------------------------------------------ //

TEST(AnalyzeReport, JsonIsWellFormedAndOrdered)
{
    const std::vector<Finding> findings = {
        {"src/b.cc", 2, "dora-cov-hash", "m\"sg"},
        {"src/a.cc", 9, "dora-cli-flag", "msg"},
        {"src/tab\tname.cc", 4, "dora-det-rand", "two\nlines"},
    };
    const std::string json = dora::analyze::renderJson(findings);
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find("\"file\": \"src/b.cc\""), std::string::npos);
    EXPECT_NE(json.find("\\\"sg"), std::string::npos);
    EXPECT_NE(json.find("src/tab\\u0009name.cc"), std::string::npos);
    EXPECT_NE(json.find("two\\u000alines"), std::string::npos);
    // No control byte from a path or message reaches the output: the
    // only raw one is the newline ending each of the N + 2 lines.
    EXPECT_EQ(std::count_if(json.begin(), json.end(),
                            [](char c) {
                                return c != '\n' &&
                                    static_cast<unsigned char>(c) < 0x20;
                            }),
              0)
        << json;
    EXPECT_EQ(static_cast<size_t>(
                  std::count(json.begin(), json.end(), '\n')),
              findings.size() + 2);
}

TEST(AnalyzeSelfScan, ShippedTreeHasZeroFindings)
{
    std::vector<std::string> scanned;
    const auto findings = dora::analyze::analyzeTree(
        repoRoot(), dora::analyze::defaultSubdirs(), &scanned);
    EXPECT_GT(scanned.size(), 100u)
        << "self-scan walked suspiciously few files — wrong root?";
    EXPECT_TRUE(findings.empty())
        << "tree is not analyze-clean:\n"
        << dora::analyze::renderText(findings);
}

TEST(AnalyzeSelfScan, CheckedInManifestIsFresh)
{
    std::vector<std::string> scanned;
    const TreeModel model = dora::analyze::loadTree(
        repoRoot(), dora::analyze::defaultSubdirs(), &scanned);
    std::vector<Finding> problems;
    const std::vector<LayoutRecord> computed =
        dora::analyze::computeLayouts(model, &problems);
    EXPECT_TRUE(problems.empty())
        << dora::analyze::renderText(problems);
    EXPECT_FALSE(computed.empty());

    const std::string on_disk = readRepoFile(
        dora::analyze::manifestRelPath());
    EXPECT_EQ(dora::analyze::renderManifest(computed), on_disk)
        << "tools/analyze/serialized_layouts.json is stale; run "
           "dora-analyze --regen-manifest";
}

TEST(AnalyzeSelfScan, FixtureFilesAreExcludedFromTreeWalks)
{
    std::vector<std::string> scanned;
    dora::analyze::loadTree(repoRoot(), {"tests"}, &scanned);
    EXPECT_FALSE(scanned.empty());
    for (const auto &path : scanned)
        EXPECT_EQ(path.find("fixtures/"), std::string::npos) << path;
}
