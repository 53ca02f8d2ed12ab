/**
 * @file
 * dora-analyze command-line driver.
 *
 *   dora-analyze [--repo DIR] [--json FILE] [--list-rules]
 *                [--regen-manifest [--allow-same-version]]
 *                [subdirs...]
 *
 * Walks src/ tests/ bench/ tools/ (or the given subdirs) under the
 * repo root, plus examples/ and benchmark/ for references only, scans
 * every file once and applies both rule families
 * (analyze_engine.hh), prints findings as
 * `path:line: [rule-id] message`, optionally writes the JSON report,
 * and exits 1 if anything was found — which is how scripts/ci.sh
 * turns the rule set into a gate.
 *
 * --regen-manifest recomputes tools/analyze/serialized_layouts.json
 * from the tree. It refuses to bless a layout that changed while its
 * version token did not (that is exactly the bug the rule exists to
 * catch), or to overwrite a manifest that does not parse; pass
 * --allow-same-version for cosmetic rewrites (e.g. a renamed local
 * fed to the same put calls) after review.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analyze_engine.hh"

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--repo DIR] [--json FILE] [--list-rules]\n"
        "          [--regen-manifest [--allow-same-version]] "
        "[subdirs...]\n"
        "  --repo DIR          repository root to scan (default: .)\n"
        "  --json FILE         also write findings as a JSON report\n"
        "  --list-rules        print the rule catalog and exit\n"
        "  --regen-manifest    rewrite "
        "tools/analyze/serialized_layouts.json\n"
        "  --allow-same-version  bless a layout rewrite that kept its "
        "version\n"
        "  subdirs             repo-relative roots (default: src "
        "tests bench tools)\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string repo = ".";
    std::string json_path;
    std::vector<std::string> subdirs;
    bool list_rules = false;
    bool regen = false;
    bool allow_same_version = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--repo" && i + 1 < argc) {
            repo = argv[++i];
        } else if (arg.rfind("--repo=", 0) == 0) {
            repo = arg.substr(7);
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else if (arg == "--list-rules") {
            list_rules = true;
        } else if (arg == "--regen-manifest") {
            regen = true;
        } else if (arg == "--allow-same-version") {
            allow_same_version = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr,
                         "dora-analyze: unknown option '%s'\n",
                         arg.c_str());
            return usage(argv[0]);
        } else {
            subdirs.push_back(arg);
        }
    }

    if (list_rules) {
        for (const auto &rule : dora::analyze::ruleCatalog())
            std::printf("%-28s %s\n", rule.id, rule.summary);
        return 0;
    }

    if (subdirs.empty())
        subdirs = dora::analyze::defaultSubdirs();

    if (regen)
        return dora::analyze::regenManifest(repo, subdirs,
                                            allow_same_version, std::cerr)
            ? 0
            : 2;

    std::vector<std::string> scanned;
    const std::vector<dora::analyze::Finding> findings =
        dora::analyze::analyzeTree(repo, subdirs, &scanned);

    std::fputs(dora::analyze::renderText(findings).c_str(), stdout);

    if (!json_path.empty()) {
        std::ofstream out(json_path, std::ios::trunc);
        out << dora::analyze::renderJson(findings);
        if (!out.good()) {
            std::fprintf(
                stderr,
                "dora-analyze: cannot write JSON report to %s\n",
                json_path.c_str());
            return 2;
        }
    }

    std::fprintf(stderr, "dora-analyze: %zu finding%s in %zu files\n",
                 findings.size(), findings.size() == 1 ? "" : "s",
                 scanned.size());
    return findings.empty() ? 0 : 1;
}
