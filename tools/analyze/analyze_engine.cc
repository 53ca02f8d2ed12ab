#include "analyze_engine.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
// GCC 12 under ASan flags std::function inside libstdc++'s <regex>.
#if !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <regex>
#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#include <sstream>

#include "line_rules.hh"

namespace dora::analyze
{

namespace
{

// ---------------------------------------------------------------- //
// Small string helpers                                             //
// ---------------------------------------------------------------- //

bool
wordChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isSpace(char c)
{
    return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/** Trim both ends and collapse internal whitespace runs to one ' '. */
std::string
collapseWs(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    bool pending = false;
    for (const char c : s) {
        if (isSpace(c)) {
            pending = !out.empty();
            continue;
        }
        if (pending) {
            out += ' ';
            pending = false;
        }
        out += c;
    }
    return out;
}

std::string
lastComponent(const std::string &qualified)
{
    const size_t pos = qualified.rfind("::");
    return pos == std::string::npos ? qualified
                                    : qualified.substr(pos + 2);
}

/** `\b<name>\b` membership test without building a regex per query. */
bool
referencesIdentifier(const std::string &haystack, const std::string &id)
{
    size_t pos = 0;
    while ((pos = haystack.find(id, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !wordChar(haystack[pos - 1]);
        const size_t end = pos + id.size();
        const bool right_ok =
            end >= haystack.size() || !wordChar(haystack[end]);
        if (left_ok && right_ok)
            return true;
        pos = end;
    }
    return false;
}

// ---------------------------------------------------------------- //
// Scanner directives                                               //
// ---------------------------------------------------------------- //

/** Collect NOLINT / NOLINTNEXTLINE rule sets. */
void
applyNolintDirectives(const std::string &comment_text, size_t line_idx,
                      ScannedUnit &unit)
{
    static const std::regex directive_re(
        R"(NOLINT(NEXTLINE)?(\(([^)]*)\))?)");
    for (auto it = std::sregex_iterator(comment_text.begin(),
                                        comment_text.end(),
                                        directive_re);
         it != std::sregex_iterator(); ++it) {
        const bool next_line = (*it)[1].matched;
        const size_t target = line_idx + (next_line ? 1 : 0);
        if (target >= unit.nolint.size())
            continue;
        if (!(*it)[2].matched) {
            unit.nolint[target].insert("*");
            continue;
        }
        std::string ids = (*it)[3].str();
        std::string id;
        std::istringstream stream(ids);
        while (std::getline(stream, id, ',')) {
            const size_t b = id.find_first_not_of(" \t");
            const size_t e = id.find_last_not_of(" \t");
            if (b == std::string::npos)
                continue;
            unit.nolint[target].insert(id.substr(b, e - b + 1));
        }
    }
}

/** Collect `dora:<name>(<reason>)` annotations from comment text. */
void
applyAnnotations(const std::string &comment_text, size_t line_idx,
                 ScannedUnit &unit)
{
    static const std::regex note_re(
        R"(dora:([A-Za-z][A-Za-z0-9-]*)\(([^)]*)\))");
    for (auto it = std::sregex_iterator(comment_text.begin(),
                                        comment_text.end(), note_re);
         it != std::sregex_iterator(); ++it) {
        if (line_idx >= unit.notes.size())
            continue;
        unit.notes[line_idx].push_back(
            Annotation{(*it)[1].str(), collapseWs((*it)[2].str())});
    }
}

} // namespace

bool
ScannedUnit::hasAnnotation(int line, const std::string &name) const
{
    for (int probe = line - 1; probe >= line - 2; --probe) {
        if (probe < 0 || static_cast<size_t>(probe) >= notes.size())
            continue;
        // The line above only counts when it is comment-only:
        // otherwise a trailing annotation on one member declaration
        // would silently bless the member declared right below it.
        if (probe == line - 2 &&
            static_cast<size_t>(probe) < code.size()) {
            const std::string &above = code[static_cast<size_t>(probe)];
            if (above.find_first_not_of(" \t") != std::string::npos)
                continue;
        }
        for (const Annotation &note : notes[probe])
            if (note.name == name && !note.arg.empty())
                return true;
    }
    return false;
}

ScannedUnit
scanUnit(std::string path, const std::string &content)
{
    ScannedUnit unit;
    unit.path = std::move(path);

    const size_t line_count = 1 +
        static_cast<size_t>(
            std::count(content.begin(), content.end(), '\n'));
    unit.code.reserve(line_count);
    unit.text.reserve(line_count);
    unit.nolint.assign(line_count + 1, {});
    unit.notes.assign(line_count + 1, {});
    unit.strings.assign(line_count + 1, {});

    enum class State
    {
        Code,
        LineComment,
        BlockComment,
        String,
        Char,
        RawString,
    };
    State state = State::Code;
    std::string code_line, text_line, comment_line, raw_delim;
    size_t line_idx = 0;
    bool lane_region = false;
    // In-flight string literal (may span lines for raw strings).
    size_t lit_line = 0, lit_col = 0;
    std::string lit_value;

    auto flush_line = [&]() {
        applyNolintDirectives(comment_line, line_idx, unit);
        applyAnnotations(comment_line, line_idx, unit);
        if (comment_line.find("dora:lane-kernel-begin") !=
            std::string::npos)
            lane_region = true;
        unit.laneKernel.push_back(lane_region ? 1 : 0);
        if (comment_line.find("dora:lane-kernel-end") !=
            std::string::npos)
            lane_region = false;
        unit.code.push_back(code_line);
        unit.text.push_back(text_line);
        code_line.clear();
        text_line.clear();
        comment_line.clear();
        ++line_idx;
    };
    auto begin_literal = [&]() {
        lit_line = line_idx;
        lit_col = code_line.size();
        lit_value.clear();
    };
    auto end_literal = [&]() {
        if (lit_line < unit.strings.size())
            unit.strings[lit_line].push_back(StringLit{
                static_cast<int>(lit_line + 1), lit_col, lit_value});
    };

    const size_t n = content.size();
    for (size_t i = 0; i < n; ++i) {
        const char c = content[i];
        const char next = i + 1 < n ? content[i + 1] : '\0';
        if (c == '\n') {
            if (state == State::LineComment)
                state = State::Code;
            flush_line();
            continue;
        }
        switch (state) {
          case State::Code:
            if (c == '/' && next == '/') {
                state = State::LineComment;
                code_line += "  ";
                text_line += "  ";
                ++i;
            } else if (c == '/' && next == '*') {
                state = State::BlockComment;
                code_line += "  ";
                text_line += "  ";
                ++i;
            } else if (c == '"' && i > 0 && content[i - 1] == 'R' &&
                       (i < 2 ||
                        !(std::isalnum(static_cast<unsigned char>(
                              content[i - 2])) ||
                          content[i - 2] == '_') ||
                        content[i - 2] == 'u' ||
                        content[i - 2] == 'U' ||
                        content[i - 2] == 'L' ||
                        content[i - 2] == '8')) {
                // R"delim( ... )delim" — capture the delimiter.
                state = State::RawString;
                begin_literal();
                code_line += '"';
                text_line += '"';
                raw_delim.clear();
                while (i + 1 < n && content[i + 1] != '(' &&
                       content[i + 1] != '\n') {
                    raw_delim += content[i + 1];
                    ++i;
                }
                if (i + 1 < n && content[i + 1] == '(')
                    ++i;
            } else if (c == '"') {
                state = State::String;
                begin_literal();
                code_line += '"';
                text_line += '"';
            } else if (c == '\'') {
                state = State::Char;
                code_line += '\'';
                text_line += '\'';
            } else {
                code_line += c;
                text_line += c;
            }
            break;
          case State::LineComment:
            comment_line += c;
            code_line += ' ';
            text_line += ' ';
            break;
          case State::BlockComment:
            if (c == '*' && next == '/') {
                state = State::Code;
                code_line += "  ";
                text_line += "  ";
                ++i;
            } else {
                comment_line += c;
                code_line += ' ';
                text_line += ' ';
            }
            break;
          case State::String:
            if (c == '\\' && next != '\0' && next != '\n') {
                code_line += "  ";
                text_line += c;
                text_line += next;
                lit_value += c;
                lit_value += next;
                ++i;
            } else if (c == '"') {
                state = State::Code;
                code_line += '"';
                text_line += '"';
                end_literal();
            } else {
                code_line += ' ';
                text_line += c;
                lit_value += c;
            }
            break;
          case State::Char:
            if (c == '\\' && next != '\0' && next != '\n') {
                code_line += "  ";
                text_line += c;
                text_line += next;
                ++i;
            } else if (c == '\'') {
                state = State::Code;
                code_line += '\'';
                text_line += '\'';
            } else {
                code_line += ' ';
                text_line += c;
            }
            break;
          case State::RawString: {
            // Close only on )delim" — otherwise blank the content.
            const std::string close = ")" + raw_delim + "\"";
            if (c == ')' &&
                content.compare(i, close.size(), close) == 0) {
                code_line += '"';
                text_line += '"';
                i += close.size() - 1;
                state = State::Code;
                end_literal();
            } else {
                code_line += ' ';
                text_line += c;
                lit_value += c;
            }
            break;
          }
        }
    }
    if (!code_line.empty() || !comment_line.empty())
        flush_line();
    while (unit.nolint.size() < unit.code.size())
        unit.nolint.push_back({});
    while (unit.notes.size() < unit.code.size())
        unit.notes.push_back({});
    while (unit.strings.size() < unit.code.size())
        unit.strings.push_back({});
    return unit;
}

// ---------------------------------------------------------------- //
// Structural parser                                                //
// ---------------------------------------------------------------- //

namespace
{

/**
 * Remove constructs that confuse statement classification: [[...]]
 * attributes, alignas(...), and UPPER_CASE macro invocations (thread-
 * safety annotations like DORA_GUARDED_BY(mu_), test macros).
 */
std::string
stripDeclNoise(const std::string &s)
{
    static const std::regex attr_re(R"(\[\[[^\]]*\]\])");
    static const std::regex alignas_re(R"(\balignas\s*\([^()]*\))");
    static const std::regex macro_re(
        R"(\b[A-Z][A-Z0-9_]{2,}\s*\([^()]*\))");
    std::string out = std::regex_replace(s, attr_re, " ");
    out = std::regex_replace(out, alignas_re, " ");
    std::string prev;
    // Repeat for nested macro arguments (rare, bounded).
    do {
        prev = out;
        out = std::regex_replace(out, macro_re, " ");
    } while (out != prev);
    return out;
}

/** Drop leading `template <...>` headers (possibly repeated). */
std::string
stripTemplateHeader(std::string s)
{
    for (;;) {
        if (s.rfind("template", 0) != 0)
            return s;
        size_t i = 8;
        while (i < s.size() && isSpace(s[i]))
            ++i;
        if (i >= s.size() || s[i] != '<')
            return s;
        int depth = 0;
        for (; i < s.size(); ++i) {
            if (s[i] == '<')
                ++depth;
            else if (s[i] == '>' && --depth == 0) {
                ++i;
                break;
            }
        }
        while (i < s.size() && isSpace(s[i]))
            ++i;
        s = s.substr(i);
    }
}

std::string
firstToken(const std::string &s)
{
    size_t b = 0;
    while (b < s.size() && !wordChar(s[b]))
        ++b;
    size_t e = b;
    while (e < s.size() && wordChar(s[e]))
        ++e;
    return s.substr(b, e - b);
}

/** True when s[i] starts the word "operator" read backwards from i. */
bool
endsWithOperatorKeyword(const std::string &s, size_t end)
{
    size_t k = end;
    while (k > 0 && isSpace(s[k - 1]))
        --k;
    return k >= 8 && s.compare(k - 8, 8, "operator") == 0 &&
        (k == 8 || !wordChar(s[k - 9]));
}

/**
 * First '(' at template-angle depth 0. "operator<"-style tokens do
 * not open an angle scope.
 */
size_t
findDeclParen(const std::string &s)
{
    int angle = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '(' && angle == 0)
            return i;
        if (c == '<') {
            if (!endsWithOperatorKeyword(s, i) &&
                (i + 1 >= s.size() || s[i + 1] != '<') &&
                (i == 0 || s[i - 1] != '<'))
                ++angle;
        } else if (c == '>' && angle > 0) {
            --angle;
        }
    }
    return std::string::npos;
}

/**
 * Position of the first top-level plain `=` (an initializer), or
 * npos. Comparison/compound operators and `operator=` do not count.
 */
size_t
findInitEq(const std::string &s)
{
    int paren = 0, angle = 0, bracket = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '(')
            ++paren;
        else if (c == ')')
            --paren;
        else if (c == '[')
            ++bracket;
        else if (c == ']')
            --bracket;
        else if (c == '<' && !endsWithOperatorKeyword(s, i))
            ++angle;
        else if (c == '>' && angle > 0)
            --angle;
        else if (c == '=' && paren == 0 && angle == 0 && bracket == 0) {
            const char prev = i > 0 ? s[i - 1] : '\0';
            const char next = i + 1 < s.size() ? s[i + 1] : '\0';
            if (next == '=' ||
                std::string("=!<>+-*/%|&^").find(prev) !=
                    std::string::npos) {
                ++i;  // skip the operator pair
                continue;
            }
            if (endsWithOperatorKeyword(s, i))
                continue;
            return i;
        }
    }
    return std::string::npos;
}

/**
 * Trailing (possibly qualified) declarator name of @p s: `foo`,
 * `Class::foo`, `~Foo`, `Outer::operator==`. Empty when the tail is
 * not a name.
 */
std::string
trailingName(std::string s)
{
    while (!s.empty() && isSpace(s.back()))
        s.pop_back();
    if (s.empty())
        return "";
    const size_t end = s.size();
    size_t i = s.size();
    if (!wordChar(s[i - 1])) {
        // Possibly operator+, operator==, operator() ...
        size_t j = i;
        while (j > 0 && !wordChar(s[j - 1]) && !isSpace(s[j - 1]))
            --j;
        if (!endsWithOperatorKeyword(s, j))
            return "";
        size_t k = j;
        while (k > 0 && isSpace(s[k - 1]))
            --k;
        i = k - 8;
    } else {
        while (i > 0 && wordChar(s[i - 1]))
            --i;
        if (i > 0 && s[i - 1] == '~')
            --i;
        if (i < s.size() &&
            std::isdigit(static_cast<unsigned char>(s[i])))
            return "";
    }
    // Absorb leading Qualifier:: chains.
    while (i >= 2 && s[i - 1] == ':' && s[i - 2] == ':') {
        size_t j = i - 2;
        while (j > 0 && wordChar(s[j - 1]))
            --j;
        if (j == i - 2)
            break;
        i = j;
    }
    std::string name = s.substr(i, end - i);
    name.erase(std::remove_if(name.begin(), name.end(), isSpace),
               name.end());
    static const std::set<std::string> keywords = {
        "if",     "for",   "while", "switch", "catch", "return",
        "sizeof", "new",   "delete", "do",    "else",  "throw",
    };
    if (keywords.count(lastComponent(name)))
        return "";
    return name;
}

/** Text after the last top-level ')' of @p s ("" when no parens). */
std::string
tailAfterParams(const std::string &s)
{
    int depth = 0;
    size_t last_close = std::string::npos;
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '(')
            ++depth;
        else if (s[i] == ')' && --depth == 0)
            last_close = i;
    }
    if (last_close == std::string::npos)
        return "";
    return collapseWs(s.substr(last_close + 1));
}

/** True when @p tail can legally follow a function's parameters. */
bool
validFunctionTail(const std::string &tail)
{
    if (tail.empty())
        return true;
    if (tail[0] == ':' || tail.rfind("->", 0) == 0)
        return true;
    std::istringstream in(tail);
    std::string tok;
    while (in >> tok)
        if (tok != "const" && tok != "noexcept" && tok != "override" &&
            tok != "final" && tok != "&" && tok != "&&")
            return false;
    return true;
}

/** Split on top-level commas (outside (), <>, []). */
std::vector<std::string>
splitTopLevel(const std::string &s)
{
    std::vector<std::string> out;
    int paren = 0, angle = 0, bracket = 0;
    std::string cur;
    for (size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '(')
            ++paren;
        else if (c == ')')
            --paren;
        else if (c == '[')
            ++bracket;
        else if (c == ']')
            --bracket;
        else if (c == '<' && !endsWithOperatorKeyword(s, i))
            ++angle;
        else if (c == '>' && angle > 0)
            --angle;
        if (c == ',' && paren == 0 && angle == 0 && bracket == 0) {
            out.push_back(cur);
            cur.clear();
            continue;
        }
        cur += c;
    }
    out.push_back(cur);
    return out;
}

struct ParseScope
{
    enum Kind
    {
        Namespace,  //!< namespace / extern "C" block
        Struct,     //!< struct/class body: members are parsed
        Function,   //!< function body: text captured verbatim
        Init,       //!< brace initializer: skipped, statement kept
        Block,      //!< enum / unknown block: skipped and cleared
    };
    Kind kind;
    size_t index = 0;  //!< structs[] / functions[] slot
    int braces = 1;
    /** decls[] slot whose endLine this scope's closing brace sets. */
    size_t decl = std::string::npos;
};

/** Per-unit structural pass: fills model.structs / model.functions. */
void
parseUnit(const ScannedUnit &unit, TreeModel &model)
{
    std::vector<ParseScope> stack;
    std::string stmt;
    int stmt_line = 1;
    std::string body, body_text;
    int body_line = 1;
    std::string pending_class, pending_name;
    bool preprocessor = false;

    auto enclosingStruct = [&]() -> StructDecl * {
        for (auto it = stack.rbegin(); it != stack.rend(); ++it)
            if (it->kind == ParseScope::Struct)
                return &model.structs[it->index];
        return nullptr;
    };

    // Record a namespace-scope declaration starting at stmt_line;
    // returns its decls[] slot, or npos for names the model skips
    // (empty, qualified, destructors, operators).
    auto addDecl = [&](const std::string &kind, const std::string &name,
                       int end_line) -> size_t {
        if (name.empty() || name.find("::") != std::string::npos ||
            name[0] == '~' || name.rfind("operator", 0) == 0)
            return std::string::npos;
        model.decls.push_back(
            NamespaceDecl{kind, name, unit.path, stmt_line, end_line});
        return model.decls.size() - 1;
    };

    auto classifyBrace = [&](int line_no) {
        const std::string s = collapseWs(
            stripTemplateHeader(collapseWs(stripDeclNoise(stmt))));
        const std::string tok = firstToken(s);
        StructDecl *outer = enclosingStruct();
        if (tok == "namespace" || tok == "extern") {
            stack.push_back({ParseScope::Namespace, 0, 1});
            stmt.clear();
            return;
        }
        if (tok == "enum" || tok == "union") {
            static const std::regex enum_re(
                R"(^(enum|union)(?:\s+(?:class|struct))?\s+([A-Za-z_]\w*))");
            std::smatch m;
            ParseScope scope{ParseScope::Block, 0, 1};
            if (!outer && std::regex_search(s, m, enum_re))
                scope.decl = addDecl(m[1].str(), m[2].str(), line_no);
            stack.push_back(scope);
            stmt.clear();
            return;
        }
        static const std::regex struct_re(
            R"(^(struct|class)\s+([A-Za-z_]\w*))");
        std::smatch m;
        if ((tok == "struct" || tok == "class") &&
            std::regex_search(s, m, struct_re)) {
            StructDecl decl;
            decl.name = outer ? outer->name + "::" + m[2].str()
                              : m[2].str();
            decl.path = unit.path;
            decl.line = stmt_line;
            model.structs.push_back(std::move(decl));
            ParseScope scope{ParseScope::Struct, model.structs.size() - 1,
                             1};
            if (!outer)
                scope.decl = addDecl(m[1].str(), m[2].str(), line_no);
            stack.push_back(scope);
            stmt.clear();
            return;
        }
        if (findInitEq(s) != std::string::npos) {
            stack.push_back({ParseScope::Init, 0, 1});
            return;  // keep stmt: the declarator precedes the braces
        }
        const size_t paren = findDeclParen(s);
        if (paren != std::string::npos) {
            const std::string name = trailingName(s.substr(0, paren));
            if (!name.empty() && validFunctionTail(tailAfterParams(s))) {
                pending_name = lastComponent(name);
                pending_class = name.size() > pending_name.size()
                    ? name.substr(0,
                                  name.size() - pending_name.size() - 2)
                    : (outer ? outer->name : "");
                ParseScope scope{ParseScope::Function, 0, 1};
                if (outer)
                    outer->methods.insert(pending_name);
                else
                    scope.decl = addDecl("function", name, line_no);
                body.clear();
                body_text.clear();
                body_line = stmt_line;
                stack.push_back(scope);
                stmt.clear();
                return;
            }
        }
        if (outer) {
            stack.push_back({ParseScope::Init, 0, 1});
            return;  // NSDMI without '=': keep the declarator
        }
        stack.push_back({ParseScope::Block, 0, 1});
        stmt.clear();
    };

    // A `;` at namespace scope ends a function declaration, a type
    // alias, a constexpr constant or something the model ignores.
    auto classifyNamespaceStatement = [&](int end_line) {
        const std::string s = collapseWs(
            stripTemplateHeader(collapseWs(stripDeclNoise(stmt))));
        const std::string tok = firstToken(s);
        static const std::set<std::string> skip = {
            "class",  "struct",    "enum",         "union",
            "friend", "namespace", "static_assert",
        };
        if (s.empty() || skip.count(tok))
            return;
        static const std::regex alias_re(
            R"(^using\s+([A-Za-z_]\w*)\s*=)");
        static const std::regex extents_re(R"((\s*\[[^\]]*\])+\s*$)");
        std::smatch m;
        const size_t eq = findInitEq(s);
        const size_t paren = findDeclParen(s);
        if (tok == "using") {
            if (std::regex_search(s, m, alias_re))
                addDecl("alias", m[1].str(), end_line);
        } else if (tok == "typedef") {
            addDecl("alias", trailingName(s), end_line);
        } else if (eq != std::string::npos) {
            if (referencesIdentifier(s.substr(0, eq), "constexpr"))
                addDecl("constant",
                        trailingName(std::regex_replace(
                            s.substr(0, eq), extents_re, "")),
                        end_line);
        } else if (paren != std::string::npos &&
                   validFunctionTail(tailAfterParams(s))) {
            addDecl("function", trailingName(s.substr(0, paren)),
                    end_line);
        }
    };

    auto closeDecl = [&](const ParseScope &scope, int line_no) {
        if (scope.decl != std::string::npos)
            model.decls[scope.decl].endLine = line_no;
    };

    auto finishFunction = [&](int line_no) {
        FunctionDef def;
        def.className = pending_class;
        def.name = pending_name;
        def.path = unit.path;
        def.line = body_line;
        def.endLine = line_no;
        def.body = body;
        def.bodyText = body_text;
        model.functions.push_back(std::move(def));
        body.clear();
        body_text.clear();
    };

    auto classifyStructStatement = [&](StructDecl &decl, int end_line) {
        std::string s = collapseWs(stripDeclNoise(stmt));
        if (s.empty())
            return;
        const std::string tok = firstToken(s);
        static const std::set<std::string> skip = {
            "using",  "typedef", "friend", "static", "template",
            "struct", "class",   "enum",   "union",  "extern",
            "public", "private", "protected",
        };
        if (skip.count(tok))
            return;
        for (std::string chunk : splitTopLevel(s)) {
            const size_t eq = findInitEq(chunk);
            if (eq != std::string::npos)
                chunk = chunk.substr(0, eq);
            const size_t paren = findDeclParen(chunk);
            if (paren != std::string::npos) {
                const std::string name =
                    trailingName(chunk.substr(0, paren));
                if (!name.empty())
                    decl.methods.insert(lastComponent(name));
                continue;
            }
            // Strip trailing array extents and bitfield widths.
            static const std::regex array_re(R"((\s*\[[^\]]*\])+\s*$)");
            chunk = std::regex_replace(chunk, array_re, "");
            int angle = 0;
            for (size_t i = 0; i < chunk.size(); ++i) {
                const char c = chunk[i];
                if (c == '<')
                    ++angle;
                else if (c == '>' && angle > 0)
                    --angle;
                else if (c == ':' && angle == 0 &&
                         (i + 1 >= chunk.size() || chunk[i + 1] != ':') &&
                         (i == 0 || chunk[i - 1] != ':')) {
                    chunk = chunk.substr(0, i);
                    break;
                }
            }
            static const std::regex name_re(R"(([A-Za-z_]\w*)\s*$)");
            std::smatch m;
            if (!std::regex_search(chunk, m, name_re))
                continue;
            decl.members.push_back(
                MemberDecl{m[1].str(), stmt_line, end_line});
        }
    };

    for (size_t li = 0; li < unit.code.size(); ++li) {
        const std::string &line = unit.code[li];
        const std::string &tline = unit.text[li];
        const int line_no = static_cast<int>(li) + 1;

        if (!preprocessor) {
            const size_t first = line.find_first_not_of(" \t");
            if (first != std::string::npos && line[first] == '#') {
                preprocessor = !line.empty() && line.back() == '\\';
                continue;
            }
        } else {
            preprocessor = !line.empty() && line.back() == '\\';
            continue;
        }

        for (size_t ci = 0; ci < line.size(); ++ci) {
            const char c = line[ci];
            ParseScope *top = stack.empty() ? nullptr : &stack.back();

            if (top && top->kind == ParseScope::Function) {
                if (c == '{') {
                    ++top->braces;
                } else if (c == '}') {
                    if (--top->braces == 0) {
                        finishFunction(line_no);
                        closeDecl(*top, line_no);
                        stack.pop_back();
                        continue;
                    }
                }
                body += c;
                body_text += ci < tline.size() ? tline[ci] : c;
                continue;
            }
            if (top && (top->kind == ParseScope::Init ||
                        top->kind == ParseScope::Block)) {
                if (c == '{') {
                    ++top->braces;
                } else if (c == '}' && --top->braces == 0) {
                    closeDecl(*top, line_no);
                    stack.pop_back();
                }
                continue;
            }

            if (c == '{') {
                classifyBrace(line_no);
            } else if (c == '}') {
                if (!stack.empty()) {
                    closeDecl(stack.back(), line_no);
                    stack.pop_back();
                }
                stmt.clear();
            } else if (c == ';') {
                if (top && top->kind == ParseScope::Struct)
                    classifyStructStatement(model.structs[top->index],
                                            line_no);
                else if (!top || top->kind == ParseScope::Namespace)
                    classifyNamespaceStatement(line_no);
                stmt.clear();
            } else if (c == ':' && top &&
                       top->kind == ParseScope::Struct) {
                const std::string s = collapseWs(stmt);
                if (s == "public" || s == "private" || s == "protected")
                    stmt.clear();
                else
                    stmt += c;
            } else {
                if (!isSpace(c) && collapseWs(stmt).empty())
                    stmt_line = line_no;
                stmt += c;
            }
        }
        ParseScope *top = stack.empty() ? nullptr : &stack.back();
        if (top && top->kind == ParseScope::Function) {
            body += '\n';
            body_text += '\n';
        } else {
            stmt += ' ';
        }
    }
}

/** Roots read only for dora-hyg-unreferenced's references. */
const std::vector<std::string> &
referenceOnlySubdirs()
{
    static const std::vector<std::string> dirs = {"examples",
                                                  "benchmark"};
    return dirs;
}

} // namespace

TreeModel
buildModel(std::vector<ScannedUnit> units)
{
    TreeModel model;
    for (ScannedUnit &unit : units) {
        bool ref_only = false;
        for (const std::string &root : referenceOnlySubdirs())
            ref_only = ref_only || hasPrefix(unit.path, (root + "/").c_str());
        (ref_only ? model.refUnits : model.units)
            .push_back(std::move(unit));
    }
    for (const ScannedUnit &unit : model.units)
        parseUnit(unit, model);
    return model;
}

// ---------------------------------------------------------------- //
// Serialized layouts                                               //
// ---------------------------------------------------------------- //

namespace
{

std::string
qualifiedName(const FunctionDef &f)
{
    return f.className.empty() ? f.name : f.className + "::" + f.name;
}

/**
 * Ordered serialization calls of a writer body: beginSection / put*
 * with whitespace-normalized arguments. Receiver objects (`w.`) are
 * dropped so renaming the writer variable is not a layout change.
 */
std::vector<std::string>
serializationOps(const std::string &body_text)
{
    static const std::regex op_re(
        R"((?:\b\w+\s*\.\s*)?\b(beginSection|put[A-Z]\w*)\s*\()");
    std::vector<std::string> ops;
    for (auto it = std::sregex_iterator(body_text.begin(),
                                        body_text.end(), op_re);
         it != std::sregex_iterator(); ++it) {
        const size_t arg_start =
            static_cast<size_t>(it->position(0) + it->length(0));
        int depth = 1;
        bool in_str = false, in_chr = false;
        size_t end = std::string::npos;
        for (size_t i = arg_start; i < body_text.size(); ++i) {
            const char c = body_text[i];
            if (in_str) {
                if (c == '\\')
                    ++i;
                else if (c == '"')
                    in_str = false;
                continue;
            }
            if (in_chr) {
                if (c == '\\')
                    ++i;
                else if (c == '\'')
                    in_chr = false;
                continue;
            }
            if (c == '"')
                in_str = true;
            else if (c == '\'')
                in_chr = true;
            else if (c == '(')
                ++depth;
            else if (c == ')' && --depth == 0) {
                end = i;
                break;
            }
        }
        if (end == std::string::npos)
            continue;
        ops.push_back(
            (*it)[1].str() + "(" +
            collapseWs(body_text.substr(arg_start, end - arg_start)) +
            ")");
    }
    return ops;
}

/** Statement-level fingerprint for function-anchored formats. */
std::vector<std::string>
statementOps(const std::string &body_text)
{
    std::vector<std::string> out;
    std::string cur;
    bool in_str = false, in_chr = false;
    for (size_t i = 0; i < body_text.size(); ++i) {
        const char c = body_text[i];
        if (in_str || in_chr) {
            cur += c;
            if (c == '\\' && i + 1 < body_text.size())
                cur += body_text[++i];
            else if (in_str && c == '"')
                in_str = false;
            else if (in_chr && c == '\'')
                in_chr = false;
            continue;
        }
        if (c == '"')
            in_str = true;
        else if (c == '\'')
            in_chr = true;
        else if (c == ';') {
            const std::string s = collapseWs(cur);
            if (!s.empty())
                out.push_back(s);
            cur.clear();
            continue;
        }
        cur += c;
    }
    const std::string s = collapseWs(cur);
    if (!s.empty())
        out.push_back(s);
    return out;
}

/** Formats not written through SnapshotWriter sections. */
struct AnchoredFormat
{
    const char *name;
    const char *file;          //!< the writer's TU
    const char *function;      //!< qualified writer name
    const char *versionFile;   //!< where the version token lives
    std::vector<const char *> versionPatterns;  //!< one capture each
};

const std::vector<AnchoredFormat> &
anchoredFormats()
{
    static const std::vector<AnchoredFormat> table = {
        {"wire-frame", "src/exec/proc/wire.cc", "encodeFrame",
         "src/exec/proc/wire.cc", {R"(kMagic\s*=\s*([^;]+);)"}},
        {"journal-header", "src/exec/proc/journal.cc", "encodeHeader",
         "src/exec/proc/journal.cc",
         {R"(kJournalMagic\s*=\s*([^;]+);)",
          R"(kJournalVersion\s*=\s*([^;]+);)"}},
        {"journal-record", "src/exec/proc/journal.cc", "encodeRecord",
         "src/exec/proc/journal.cc",
         {R"(kRecordMagic\s*=\s*([^;]+);)"}},
        {"model-bundle", "src/dora/model_bundle.cc",
         "ModelBundle::serialize", "src/dora/model_bundle.hh",
         {R"(kFormatVersion\s*=\s*([^;]+);)"}},
    };
    return table;
}

const ScannedUnit *
findUnit(const TreeModel &model, const std::string &path)
{
    for (const ScannedUnit &u : model.units)
        if (u.path == path)
            return &u;
    return nullptr;
}

std::string
joinedText(const ScannedUnit &unit)
{
    std::string out;
    for (const std::string &line : unit.text) {
        out += line;
        out += '\n';
    }
    return out;
}

} // namespace

std::vector<LayoutRecord>
computeLayouts(const TreeModel &model, std::vector<Finding> *problems)
{
    std::vector<LayoutRecord> records;

    // Auto-discovered snapshot-section writers: a function calling
    // beginSection("tag", v) plus at least one put* is a writer (the
    // matching reader calls beginSection with get*s and is skipped).
    for (const FunctionDef &f : model.functions) {
        if (!hasPrefix(f.path, "src/"))
            continue;
        const std::vector<std::string> ops = serializationOps(f.bodyText);
        bool writes = false;
        for (const std::string &op : ops)
            if (op.rfind("put", 0) == 0)
                writes = true;
        if (!writes)
            continue;
        for (const std::string &op : ops) {
            if (op.rfind("beginSection(", 0) != 0)
                continue;
            const size_t q1 = op.find('"');
            const size_t q2 =
                q1 == std::string::npos ? q1 : op.find('"', q1 + 1);
            if (q2 == std::string::npos)
                continue;
            LayoutRecord rec;
            rec.name = "section:" + op.substr(q1 + 1, q2 - q1 - 1);
            rec.file = f.path;
            rec.function = qualifiedName(f);
            const size_t comma = op.find(',', q2);
            rec.version = comma == std::string::npos
                ? ""
                : collapseWs(op.substr(comma + 1,
                                       op.size() - comma - 2));
            rec.layout = ops;
            rec.line = f.line;
            records.push_back(std::move(rec));
        }
    }

    // Table-anchored formats (wire frames, journal, model bundle).
    // An anchor only applies when its TU is part of the scanned tree
    // (fixture trees do not contain them).
    for (const AnchoredFormat &fmt : anchoredFormats()) {
        const ScannedUnit *tu = findUnit(model, fmt.file);
        if (!tu)
            continue;
        LayoutRecord rec;
        rec.name = fmt.name;
        rec.file = fmt.file;
        rec.function = fmt.function;
        rec.line = 1;
        bool found = false;
        for (const FunctionDef &f : model.functions) {
            if (f.path != fmt.file || qualifiedName(f) != fmt.function)
                continue;
            const std::vector<std::string> ops =
                statementOps(f.bodyText);
            rec.layout.insert(rec.layout.end(), ops.begin(),
                              ops.end());
            rec.line = f.line;
            found = true;
        }
        if (!found) {
            if (problems)
                problems->push_back(Finding{
                    fmt.file, 1, "dora-ser-version",
                    std::string("anchored serialized format '") +
                        fmt.name + "': writer function " +
                        fmt.function +
                        " not found; update the anchor table in "
                        "tools/analyze/analyze_engine.cc"});
            continue;
        }
        const ScannedUnit *vu = findUnit(model, fmt.versionFile);
        const std::string vtext = vu ? joinedText(*vu) : "";
        std::string version;
        for (const char *pattern : fmt.versionPatterns) {
            std::smatch m;
            if (vu && std::regex_search(vtext, m,
                                        std::regex(pattern))) {
                if (!version.empty())
                    version += "|";
                version += collapseWs(m[1].str());
            } else if (problems) {
                problems->push_back(Finding{
                    fmt.versionFile, 1, "dora-ser-version",
                    std::string("anchored serialized format '") +
                        fmt.name + "': version token pattern '" +
                        pattern + "' not found in " + fmt.versionFile});
            }
        }
        rec.version = version;
        records.push_back(std::move(rec));
    }

    // Disambiguate duplicate names (same tag written by two
    // functions) so manifest keys stay stable.
    std::map<std::string, int> name_count;
    for (const LayoutRecord &rec : records)
        ++name_count[rec.name];
    for (LayoutRecord &rec : records)
        if (name_count[rec.name] > 1)
            rec.name += "#" + rec.function;

    std::sort(records.begin(), records.end(),
              [](const LayoutRecord &a, const LayoutRecord &b) {
                  return a.name < b.name;
              });
    return records;
}

// ---------------------------------------------------------------- //
// Manifest rendering / parsing                                     //
// ---------------------------------------------------------------- //

namespace
{

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c) & 0xff);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/** Strict parser for the JSON subset renderManifest emits. */
struct JsonCursor
{
    const std::string &s;
    size_t i = 0;
    std::string err;

    bool fail(const std::string &what)
    {
        if (err.empty())
            err = what + " at offset " + std::to_string(i);
        return false;
    }
    void ws()
    {
        while (i < s.size() && isSpace(s[i]))
            ++i;
    }
    bool expect(char c)
    {
        ws();
        if (i >= s.size() || s[i] != c)
            return fail(std::string("expected '") + c + "'");
        ++i;
        return true;
    }
    bool peek(char c)
    {
        ws();
        return i < s.size() && s[i] == c;
    }
    bool parseString(std::string *out)
    {
        if (!expect('"'))
            return false;
        std::string value;
        while (i < s.size() && s[i] != '"') {
            char c = s[i++];
            if (c == '\\' && i < s.size()) {
                const char e = s[i++];
                switch (e) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  case 'u': {
                    for (size_t k = i; k < i + 4; ++k)
                        if (k >= s.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(s[k])))
                            return fail("\\u escape needs four hex "
                                        "digits");
                    c = static_cast<char>(
                        std::stoul(s.substr(i, 4), nullptr, 16) & 0xff);
                    i += 4;
                    break;
                  }
                  default: c = e; break;
                }
            }
            value += c;
        }
        if (i >= s.size())
            return fail("unterminated string");
        ++i;
        if (out)
            *out = std::move(value);
        return true;
    }
    bool skipValue()
    {
        ws();
        if (i >= s.size())
            return fail("unexpected end of input");
        const char c = s[i];
        if (c == '"')
            return parseString(nullptr);
        if (c == '{' || c == '[') {
            const char close = c == '{' ? '}' : ']';
            ++i;
            ws();
            if (peek(close)) {
                ++i;
                return true;
            }
            for (;;) {
                if (c == '{') {
                    if (!parseString(nullptr) || !expect(':'))
                        return false;
                }
                if (!skipValue())
                    return false;
                ws();
                if (peek(',')) {
                    ++i;
                    continue;
                }
                return expect(close);
            }
        }
        // number / true / false / null
        const size_t start = i;
        while (i < s.size() && (wordChar(s[i]) || s[i] == '-' ||
                                s[i] == '+' || s[i] == '.'))
            ++i;
        return i > start || fail("expected a value");
    }
};

} // namespace

std::string
renderManifest(const std::vector<LayoutRecord> &records)
{
    std::vector<LayoutRecord> sorted = records;
    std::sort(sorted.begin(), sorted.end(),
              [](const LayoutRecord &a, const LayoutRecord &b) {
                  return a.name < b.name;
              });
    std::ostringstream out;
    out << "{\n  \"format\": \"dora-serialized-layouts-v1\",\n"
        << "  \"formats\": [\n";
    for (size_t r = 0; r < sorted.size(); ++r) {
        const LayoutRecord &rec = sorted[r];
        out << "    {\n"
            << "      \"name\": \"" << jsonEscape(rec.name) << "\",\n"
            << "      \"file\": \"" << jsonEscape(rec.file) << "\",\n"
            << "      \"function\": \"" << jsonEscape(rec.function)
            << "\",\n"
            << "      \"version\": \"" << jsonEscape(rec.version)
            << "\",\n"
            << "      \"layout\": [";
        for (size_t i = 0; i < rec.layout.size(); ++i)
            out << (i ? ",\n                 " : "\n                 ")
                << "\"" << jsonEscape(rec.layout[i]) << "\"";
        out << "\n      ]\n    }" << (r + 1 < sorted.size() ? "," : "")
            << "\n";
    }
    out << "  ]\n}\n";
    return out.str();
}

bool
parseManifest(const std::string &json,
              std::vector<LayoutRecord> *records, std::string *error)
{
    JsonCursor cur{json, 0, {}};
    records->clear();
    auto done = [&](bool ok) {
        if (!ok && error)
            *error = cur.err.empty() ? "malformed manifest" : cur.err;
        return ok;
    };
    if (!cur.expect('{'))
        return done(false);
    if (cur.peek('}'))
        return done(true);
    for (;;) {
        std::string key;
        if (!cur.parseString(&key) || !cur.expect(':'))
            return done(false);
        if (key != "formats") {
            if (!cur.skipValue())
                return done(false);
        } else {
            if (!cur.expect('['))
                return done(false);
            while (!cur.peek(']')) {
                if (!cur.expect('{'))
                    return done(false);
                LayoutRecord rec;
                while (!cur.peek('}')) {
                    std::string field;
                    if (!cur.parseString(&field) || !cur.expect(':'))
                        return done(false);
                    if (field == "name") {
                        if (!cur.parseString(&rec.name))
                            return done(false);
                    } else if (field == "file") {
                        if (!cur.parseString(&rec.file))
                            return done(false);
                    } else if (field == "function") {
                        if (!cur.parseString(&rec.function))
                            return done(false);
                    } else if (field == "version") {
                        if (!cur.parseString(&rec.version))
                            return done(false);
                    } else if (field == "layout") {
                        if (!cur.expect('['))
                            return done(false);
                        while (!cur.peek(']')) {
                            std::string op;
                            if (!cur.parseString(&op))
                                return done(false);
                            rec.layout.push_back(std::move(op));
                            if (cur.peek(','))
                                ++cur.i;
                        }
                        ++cur.i;  // ']'
                    } else {
                        if (!cur.skipValue())
                            return done(false);
                    }
                    if (cur.peek(','))
                        ++cur.i;
                }
                ++cur.i;  // '}'
                records->push_back(std::move(rec));
                if (cur.peek(','))
                    ++cur.i;
            }
            ++cur.i;  // ']'
        }
        if (cur.peek(',')) {
            ++cur.i;
            continue;
        }
        return done(cur.expect('}'));
    }
}

// ---------------------------------------------------------------- //
// Rules                                                            //
// ---------------------------------------------------------------- //

namespace
{

/**
 * dora-cov-hash: every field of a config struct under a hash
 * contract must be referenced by its hash function(s) or annotated
 * `// dora:hash-exclude(<reason>)`.
 */
struct HashContract
{
    const char *structName;
    std::vector<const char *> hashFunctions;
};

const std::vector<HashContract> &
hashContracts()
{
    static const std::vector<HashContract> table = {
        {"ExperimentConfig", {"experimentConfigHash"}},
        {"FleetSpec", {"fleetSpecText", "fleetSpecHash"}},
        {"TrainerConfig", {"trainingConfigHash"}},
    };
    return table;
}

void
ruleCovHash(const TreeModel &model, std::vector<Finding> &out)
{
    for (const HashContract &contract : hashContracts()) {
        std::string bodies;
        std::string fn_names;
        for (const char *fn : contract.hashFunctions) {
            for (const FunctionDef &f : model.functions)
                if (f.name == fn)
                    bodies += f.body + "\n";
            if (!fn_names.empty())
                fn_names += "/";
            fn_names += fn;
        }
        for (const StructDecl &decl : model.structs) {
            if (lastComponent(decl.name) != contract.structName)
                continue;
            const ScannedUnit *unit = findUnit(model, decl.path);
            if (bodies.empty()) {
                out.push_back(Finding{
                    decl.path, decl.line, "dora-cov-hash",
                    std::string("hash function ") + fn_names +
                        "() for " + contract.structName +
                        " not found in the scanned tree"});
                continue;
            }
            for (const MemberDecl &m : decl.members) {
                if (referencesIdentifier(bodies, m.name))
                    continue;
                bool annotated = false;
                for (int line = m.line; line <= m.endLine && unit;
                     ++line)
                    if (unit->hasAnnotation(line, "hash-exclude"))
                        annotated = true;
                if (annotated)
                    continue;
                out.push_back(Finding{
                    decl.path, m.line, "dora-cov-hash",
                    "field '" + m.name + "' of " +
                        contract.structName +
                        " is not folded into " + fn_names +
                        "(); fold it or annotate '// "
                        "dora:hash-exclude(<reason>)' — un-hashed "
                        "fields silently reuse stale caches"});
            }
        }
    }
}

/**
 * dora-cov-snapshot: every data member of a class that defines both
 * snapshot() and tryRestore() must appear in both bodies or carry
 * `// dora:snapshot-exclude(<reason>)`.
 */
void
ruleCovSnapshot(const TreeModel &model, std::vector<Finding> &out)
{
    for (const StructDecl &decl : model.structs) {
        if (!hasPrefix(decl.path, "src/"))
            continue;
        const std::string cls = lastComponent(decl.name);
        std::string snap_body, restore_body;
        for (const FunctionDef &f : model.functions) {
            if (lastComponent(f.className) != cls)
                continue;
            if (f.name == "snapshot")
                snap_body += f.body + "\n";
            else if (f.name == "tryRestore")
                restore_body += f.body + "\n";
        }
        const bool declares_both = decl.methods.count("snapshot") &&
            decl.methods.count("tryRestore");
        if (!declares_both || snap_body.empty() ||
            restore_body.empty())
            continue;
        const ScannedUnit *unit = findUnit(model, decl.path);
        for (const MemberDecl &m : decl.members) {
            const bool in_snap =
                referencesIdentifier(snap_body, m.name);
            const bool in_restore =
                referencesIdentifier(restore_body, m.name);
            if (in_snap && in_restore)
                continue;
            bool annotated = false;
            for (int line = m.line; line <= m.endLine && unit; ++line)
                if (unit->hasAnnotation(line, "snapshot-exclude"))
                    annotated = true;
            if (annotated)
                continue;
            const char *where = (!in_snap && !in_restore)
                ? "snapshot() or tryRestore()"
                : (!in_snap ? "snapshot()" : "tryRestore()");
            out.push_back(Finding{
                decl.path, m.line, "dora-cov-snapshot",
                "member '" + m.name + "' of " + cls +
                    " does not appear in " + where +
                    "; serialize it in both or annotate '// "
                    "dora:snapshot-exclude(<reason>)' — missing "
                    "members break resume/replay bit-identity"});
        }
    }
}

/**
 * dora-det-streamtag: RNG stream-tag literals (first argument of
 * Rng(...), .fork(...), hashLabel(...)) used at more than one call
 * site correlate streams that must be independent.
 */
struct TagSite
{
    size_t unitIdx;
    int line;
};

void
ruleDetStreamtag(const TreeModel &model, std::vector<Finding> &out)
{
    std::map<std::string, std::vector<TagSite>> sites;
    for (size_t ui = 0; ui < model.units.size(); ++ui) {
        const ScannedUnit &unit = model.units[ui];
        if (!anyPrefix(unit.path, {"src/", "bench/", "tools/fleet/"}))
            continue;
        for (size_t li = 0; li < unit.text.size(); ++li) {
            for (const StringLit &lit : unit.strings[li]) {
                if (lit.value.empty() ||
                    static_cast<size_t>(lit.line) != li + 1)
                    continue;
                std::string before =
                    unit.text[li].substr(0, lit.col);
                if (collapseWs(before).empty() && li > 0)
                    before = unit.text[li - 1] + " " + before;
                while (!before.empty() && isSpace(before.back()))
                    before.pop_back();
                if (before.empty() || before.back() != '(')
                    continue;
                before.pop_back();
                while (!before.empty() && isSpace(before.back()))
                    before.pop_back();
                // Identifier immediately before the '('.
                size_t w = before.size();
                while (w > 0 && wordChar(before[w - 1]))
                    --w;
                const std::string callee = before.substr(w);
                std::string rest = before.substr(0, w);
                while (!rest.empty() && isSpace(rest.back()))
                    rest.pop_back();
                bool is_site = false;
                if (callee == "hashLabel" || callee == "Rng") {
                    is_site = true;
                } else if (callee == "fork" && !rest.empty() &&
                           (rest.back() == '.' ||
                            (rest.size() >= 2 &&
                             rest.compare(rest.size() - 2, 2, "->") ==
                                 0))) {
                    is_site = true;
                } else if (!callee.empty()) {
                    // Named constructor: `Rng name("tag" ...)`.
                    size_t w2 = rest.size();
                    while (w2 > 0 && wordChar(rest[w2 - 1]))
                        --w2;
                    if (rest.substr(w2) == "Rng")
                        is_site = true;
                }
                if (is_site)
                    sites[lit.value].push_back(
                        TagSite{ui, static_cast<int>(li + 1)});
            }
        }
    }
    for (const auto &[tag, tag_sites] : sites) {
        if (tag_sites.size() < 2)
            continue;
        for (size_t i = 0; i < tag_sites.size(); ++i) {
            const TagSite &site = tag_sites[i];
            const ScannedUnit &unit = model.units[site.unitIdx];
            if (unit.hasAnnotation(site.line, "stream-tag-shared"))
                continue;
            const TagSite &other = tag_sites[i == 0 ? 1 : 0];
            out.push_back(Finding{
                unit.path, site.line, "dora-det-streamtag",
                "RNG stream tag \"" + tag + "\" is seeded at " +
                    std::to_string(tag_sites.size()) +
                    " call sites (also " +
                    model.units[other.unitIdx].path + ":" +
                    std::to_string(other.line) +
                    "); shared tags correlate streams that must be "
                    "independent — use a distinct tag or annotate "
                    "'// dora:stream-tag-shared(<reason>)'"});
        }
    }
}

/**
 * Diff recomputed layouts against the recorded manifest: one
 * dora-ser-version finding per format added, removed or changed. A
 * layout that changed under an unchanged version token — old readers
 * would mis-parse the new bytes — goes to @p unversioned; every other
 * difference is a stale but consistent manifest and goes to @p stale.
 * The rule reports both; --regen-manifest refuses on the first.
 */
void
diffLayouts(const std::vector<LayoutRecord> &computed,
            const std::vector<LayoutRecord> &recorded,
            std::vector<Finding> &unversioned,
            std::vector<Finding> &stale)
{
    std::map<std::string, const LayoutRecord *> by_name;
    for (const LayoutRecord &rec : recorded)
        by_name[rec.name] = &rec;
    std::set<std::string> seen;
    for (const LayoutRecord &c : computed) {
        seen.insert(c.name);
        const auto it = by_name.find(c.name);
        if (it == by_name.end()) {
            stale.push_back(Finding{
                c.file, c.line, "dora-ser-version",
                "serialized format '" + c.name + "' (version " +
                    c.version +
                    ") is not declared in the manifest; review the "
                    "layout and run dora-analyze --regen-manifest"});
            continue;
        }
        const LayoutRecord &m = *it->second;
        if (c.layout != m.layout && c.version == m.version) {
            unversioned.push_back(Finding{
                c.file, c.line, "dora-ser-version",
                "layout of '" + c.name +
                    "' changed but its version token is still " +
                    c.version +
                    "; old readers would mis-parse the new bytes — "
                    "bump the version and run dora-analyze "
                    "--regen-manifest"});
        } else if (c.layout != m.layout) {
            stale.push_back(Finding{
                c.file, c.line, "dora-ser-version",
                "layout and version of '" + c.name + "' changed (" +
                    m.version + " -> " + c.version +
                    "); run dora-analyze --regen-manifest to bless "
                    "the new layout"});
        } else if (c.version != m.version) {
            stale.push_back(Finding{
                c.file, c.line, "dora-ser-version",
                "version token of '" + c.name + "' changed " +
                    m.version + " -> " + c.version +
                    " without a layout change; run dora-analyze "
                    "--regen-manifest"});
        }
    }
    for (const LayoutRecord &m : recorded)
        if (!seen.count(m.name))
            stale.push_back(Finding{
                manifestRelPath(), 1, "dora-ser-version",
                "manifest entry '" + m.name +
                    "' no longer matches any writer in the tree; run "
                    "dora-analyze --regen-manifest"});
}

/**
 * dora-ser-version: diff recomputed layouts against the checked-in
 * manifest (missing or unparseable manifests are findings too).
 */
void
ruleSerVersion(const TreeModel &model, const std::string *manifestJson,
               std::vector<Finding> &out)
{
    std::vector<LayoutRecord> computed = computeLayouts(model, &out);
    if (!manifestJson) {
        if (!computed.empty())
            out.push_back(Finding{
                manifestRelPath(), 1, "dora-ser-version",
                "serialized-layout manifest is missing but the tree "
                "contains " +
                    std::to_string(computed.size()) +
                    " serialized formats; run dora-analyze "
                    "--regen-manifest"});
        return;
    }
    std::vector<LayoutRecord> recorded;
    std::string error;
    if (!parseManifest(*manifestJson, &recorded, &error)) {
        out.push_back(Finding{manifestRelPath(), 1,
                              "dora-ser-version",
                              "manifest is malformed (" + error +
                                  "); run dora-analyze "
                                  "--regen-manifest"});
        return;
    }
    diffLayouts(computed, recorded, out, out);
}

/**
 * dora-cli-flag: a `--flag` literal in comparison position outside
 * the common/cli.hh helpers re-opens the silent-misconfiguration
 * class (missing values falling through to defaults).
 */
void
ruleCliFlag(const TreeModel &model, std::vector<Finding> &out)
{
    static const std::set<std::string> parse_callees = {
        "strcmp", "strncmp", "rfind", "find", "compare",
        "starts_with",
    };
    for (const ScannedUnit &unit : model.units) {
        if (!anyPrefix(unit.path, {"src/", "bench/", "tools/fleet/"}))
            continue;
        if (hasPrefix(unit.path, "src/common/cli."))
            continue;  // the helpers themselves
        for (size_t li = 0; li < unit.text.size(); ++li) {
            for (const StringLit &lit : unit.strings[li]) {
                if (lit.value.size() < 3 ||
                    lit.value.rfind("--", 0) != 0 ||
                    !std::isalpha(
                        static_cast<unsigned char>(lit.value[2])) ||
                    static_cast<size_t>(lit.line) != li + 1)
                    continue;
                const std::string &text = unit.text[li];
                std::string before = text.substr(0, lit.col);
                const size_t lit_end =
                    lit.col + lit.value.size() + 2;
                std::string after = lit_end < text.size()
                    ? text.substr(lit_end)
                    : "";
                while (!before.empty() && isSpace(before.back()))
                    before.pop_back();
                size_t a = 0;
                while (a < after.size() && isSpace(after[a]))
                    ++a;
                after = after.substr(a);
                bool compared = false;
                if (before.size() >= 2 &&
                    (before.compare(before.size() - 2, 2, "==") == 0 ||
                     before.compare(before.size() - 2, 2, "!=") == 0))
                    compared = true;
                if (after.rfind("==", 0) == 0 ||
                    after.rfind("!=", 0) == 0)
                    compared = true;
                if (!compared) {
                    // Callee of the innermost unclosed call.
                    int depth = 0;
                    for (size_t i = before.size(); i-- > 0;) {
                        const char c = before[i];
                        if (c == ')') {
                            ++depth;
                        } else if (c == '(') {
                            if (depth > 0) {
                                --depth;
                                continue;
                            }
                            size_t w = i;
                            while (w > 0 && isSpace(before[w - 1]))
                                --w;
                            size_t b = w;
                            while (b > 0 && wordChar(before[b - 1]))
                                --b;
                            compared = parse_callees.count(
                                           before.substr(b, w - b)) >
                                0;
                            break;
                        }
                    }
                }
                if (!compared)
                    continue;
                out.push_back(Finding{
                    unit.path, static_cast<int>(li + 1),
                    "dora-cli-flag",
                    "flag \"" + lit.value +
                        "\" is parsed by hand; route it through "
                        "cliFlagValue()/cliHasFlag() (common/cli.hh) "
                        "so missing values stay a fatal diagnostic "
                        "instead of a silent default"});
            }
        }
    }
}

/**
 * dora-hyg-unreferenced: a namespace-scope declaration in a src/
 * header needs a reference from src/, bench/, tools/, examples/ or
 * benchmark/ — tests do not count — or a
 * `// dora:test-only(<reason>)` annotation. A reference is any
 * occurrence of the name in a code view, except inside the
 * declaration itself and inside its out-of-line definitions (a free
 * function's own definition, or any `Name::…` member definition of a
 * class). Matching is by name, so a shared identifier hides dead code
 * but never flags live code.
 */
void
ruleHygUnreferenced(const TreeModel &model, std::vector<Finding> &out)
{
    struct Span
    {
        const std::string *path;
        int first, last;
    };
    // Per declared name: the spans where its occurrences do not count.
    auto subject = [](const NamespaceDecl &d) {
        return hasPrefix(d.path, "src/") && hasSuffix(d.path, ".hh");
    };
    std::map<std::string, std::vector<Span>> own;
    for (const NamespaceDecl &d : model.decls)
        if (subject(d))
            own[d.name].push_back(Span{&d.path, d.line, d.endLine});
    for (const FunctionDef &f : model.functions) {
        const Span span{&f.path, f.line, f.endLine};
        if (f.className.empty()) {
            if (const auto it = own.find(f.name); it != own.end())
                it->second.push_back(span);
            continue;
        }
        // A member of Name, or of a class nested in it.
        size_t begin = 0;
        for (size_t sep = 0; sep != std::string::npos; begin = sep + 2) {
            sep = f.className.find("::", begin);
            const auto it = own.find(f.className.substr(begin, sep - begin));
            if (it != own.end())
                it->second.push_back(span);
        }
    }

    std::set<std::string> referenced;
    auto collect = [&](const ScannedUnit &unit) {
        for (size_t li = 0; li < unit.code.size(); ++li) {
            const std::string &line = unit.code[li];
            const int line_no = static_cast<int>(li) + 1;
            for (size_t i = 0; i < line.size();) {
                if (!wordChar(line[i])) {
                    ++i;
                    continue;
                }
                const size_t b = i;
                while (i < line.size() && wordChar(line[i]))
                    ++i;
                const auto it = own.find(line.substr(b, i - b));
                if (it == own.end() || referenced.count(it->first))
                    continue;
                const bool excluded = std::any_of(
                    it->second.begin(), it->second.end(),
                    [&](const Span &s) {
                        return *s.path == unit.path &&
                            line_no >= s.first && line_no <= s.last;
                    });
                if (!excluded)
                    referenced.insert(it->first);
            }
        }
    };
    for (const ScannedUnit &unit : model.units)
        if (anyPrefix(unit.path, {"src/", "bench/", "tools/"}))
            collect(unit);
    for (const ScannedUnit &unit : model.refUnits)
        collect(unit);

    for (const NamespaceDecl &d : model.decls) {
        if (!subject(d) || referenced.count(d.name))
            continue;
        const ScannedUnit *unit = findUnit(model, d.path);
        if (unit && unit->hasAnnotation(d.line, "test-only"))
            continue;
        out.push_back(Finding{
            d.path, d.line, "dora-hyg-unreferenced",
            d.kind + " '" + d.name +
                "' has no reference outside tests; delete it with the "
                "tests that exercise only it, or annotate '// "
                "dora:test-only(<reason>)'"});
    }
}

} // namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> catalog = {
        // Line rules (line_rules.cc).
        {"dora-det-rand",
         "no unseeded/global RNG (rand, srand, std::random_device)"},
        {"dora-det-wallclock",
         "no wall-clock reads in simulation code (allow: src/exec, "
         "src/obs)"},
        {"dora-det-unordered",
         "no std::unordered_* containers in result-producing code"},
        {"dora-det-confighash",
         "no wall-clock/date input in files feeding "
         "experiment/training config hashes"},
        {"dora-conc-global-state",
         "mutable static/global state must be atomic, mutex-guarded, "
         "or NOLINT-justified"},
        {"dora-conc-mutex-unannotated",
         "header mutex members need GUARDED_BY-annotated fields"},
        {"dora-hyg-stream",
         "no direct console writes from library code (log sink only)"},
        {"dora-hyg-catch-all",
         "no catch (...) that swallows without rethrow/log"},
        {"dora-hyg-assert",
         "no assert() guards (compiled out in Release); use "
         "fatal()/panic()"},
        {"dora-rob-unchecked-try",
         "no discarded try*() results (tryRestore/tryDeserialize "
         "report failure by return value)"},
        {"dora-perf-lane-alias",
         "no std::vector<bool> in lane-kernel files; no ->/.at() "
         "inside dora:lane-kernel regions"},
        // Structural rules (this file).
        {"dora-cov-hash",
         "config struct fields must be folded into their hash "
         "function or annotated dora:hash-exclude(reason)"},
        {"dora-cov-snapshot",
         "members of classes with snapshot()/tryRestore() must "
         "round-trip through both or be annotated "
         "dora:snapshot-exclude(reason)"},
        {"dora-det-streamtag",
         "an RNG stream tag used at multiple call sites correlates "
         "streams; share only with dora:stream-tag-shared(reason)"},
        {"dora-ser-version",
         "serialized layouts must match tools/analyze/"
         "serialized_layouts.json; layout changes require a version "
         "bump (--regen-manifest to bless)"},
        {"dora-cli-flag",
         "--flag literals must be parsed via the common/cli.hh "
         "helpers, not by hand"},
        {"dora-hyg-unreferenced",
         "namespace-scope declarations in src/ headers need a "
         "non-test reference or dora:test-only(reason)"},
    };
    return catalog;
}

std::vector<Finding>
analyzeModel(const TreeModel &model, const std::string *manifestJson)
{
    std::vector<Finding> raw;
    for (const ScannedUnit &unit : model.units)
        lineRules(unit, raw);
    ruleCovHash(model, raw);
    ruleCovSnapshot(model, raw);
    ruleDetStreamtag(model, raw);
    ruleSerVersion(model, manifestJson, raw);
    ruleCliFlag(model, raw);
    ruleHygUnreferenced(model, raw);

    std::map<std::string, const ScannedUnit *> by_path;
    for (const ScannedUnit &unit : model.units)
        by_path[unit.path] = &unit;

    std::vector<Finding> findings;
    for (Finding &finding : raw) {
        const auto it = by_path.find(finding.path);
        if (it != by_path.end()) {
            const size_t idx = static_cast<size_t>(finding.line) - 1;
            if (idx < it->second->nolint.size()) {
                const auto &suppressed = it->second->nolint[idx];
                if (suppressed.count("*") ||
                    suppressed.count(finding.rule))
                    continue;
            }
        }
        findings.push_back(std::move(finding));
    }
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.path != b.path)
                      return a.path < b.path;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
    return findings;
}

// ---------------------------------------------------------------- //
// Tree entry points                                                //
// ---------------------------------------------------------------- //

namespace
{

namespace fs = std::filesystem;

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

} // namespace

const std::vector<std::string> &
defaultSubdirs()
{
    static const std::vector<std::string> dirs = {"src", "tests",
                                                  "bench", "tools"};
    return dirs;
}

const char *
manifestRelPath()
{
    return "tools/analyze/serialized_layouts.json";
}

TreeModel
loadTree(const std::string &repoRoot,
         const std::vector<std::string> &subdirs,
         std::vector<std::string> *scannedPaths)
{
    std::vector<std::string> roots = subdirs;
    for (const std::string &root : referenceOnlySubdirs())
        if (std::find(roots.begin(), roots.end(), root) == roots.end())
            roots.push_back(root);
    std::vector<std::string> paths;
    for (const auto &subdir : roots) {
        const fs::path root = fs::path(repoRoot) / subdir;
        if (!fs::exists(root))
            continue;
        for (auto it = fs::recursive_directory_iterator(root);
             it != fs::recursive_directory_iterator(); ++it) {
            const fs::path rel = it->path().lexically_relative(repoRoot);
            const std::string rel_str = rel.generic_string();
            // The benchmark's build and output trees are not source.
            if (rel_str == "benchmark/build" || rel_str == "benchmark/out") {
                it.disable_recursion_pending();
                continue;
            }
            if (!it->is_regular_file())
                continue;
            const std::string ext = it->path().extension().string();
            if (ext != ".cc" && ext != ".hh" && ext != ".cpp")
                continue;
            // Golden-test fixtures are deliberate violations.
            if (*rel.begin() == "tests" &&
                std::find(rel.begin(), rel.end(), "fixtures") !=
                    rel.end())
                continue;
            paths.push_back(rel_str);
        }
    }
    std::sort(paths.begin(), paths.end());

    std::vector<ScannedUnit> units;
    units.reserve(paths.size());
    for (const auto &rel : paths)
        units.push_back(scanUnit(rel, readFile(fs::path(repoRoot) / rel)));
    TreeModel model = buildModel(std::move(units));
    if (scannedPaths) {
        scannedPaths->clear();
        for (const ScannedUnit &unit : model.units)
            scannedPaths->push_back(unit.path);
    }
    return model;
}

std::vector<Finding>
analyzeTree(const std::string &repoRoot,
            const std::vector<std::string> &subdirs,
            std::vector<std::string> *scannedPaths)
{
    const TreeModel model = loadTree(repoRoot, subdirs, scannedPaths);
    const fs::path manifest_path = fs::path(repoRoot) / manifestRelPath();
    if (!fs::exists(manifest_path))
        return analyzeModel(model, nullptr);
    const std::string manifest = readFile(manifest_path);
    return analyzeModel(model, &manifest);
}

bool
regenManifest(const std::string &repoRoot,
              const std::vector<std::string> &subdirs,
              bool allowSameVersion, std::ostream &log)
{
    std::vector<Finding> problems;
    const std::vector<LayoutRecord> computed =
        computeLayouts(loadTree(repoRoot, subdirs), &problems);
    if (!problems.empty()) {
        log << renderText(problems)
            << "dora-analyze: cannot regenerate the manifest while "
               "format anchors are broken\n";
        return false;
    }

    const fs::path path = fs::path(repoRoot) / manifestRelPath();
    if (fs::exists(path) && !allowSameVersion) {
        std::vector<LayoutRecord> recorded;
        std::string error;
        if (!parseManifest(readFile(path), &recorded, &error)) {
            log << "dora-analyze: refusing to overwrite "
                << path.string() << ": it does not parse (" << error
                << "); pass --allow-same-version to replace it after "
                   "review\n";
            return false;
        }
        std::vector<Finding> unversioned, stale;
        diffLayouts(computed, recorded, unversioned, stale);
        if (!unversioned.empty()) {
            log << renderText(unversioned)
                << "dora-analyze: refusing to bless a layout change "
                   "under an unchanged version token; bump the "
                   "version token(s) first, or pass "
                   "--allow-same-version for a reviewed cosmetic "
                   "rewrite\n";
            return false;
        }
    }

    fs::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::trunc);
    out << renderManifest(computed);
    if (!out.good()) {
        log << "dora-analyze: cannot write manifest " << path.string()
            << "\n";
        return false;
    }
    log << "dora-analyze: wrote " << computed.size() << " format"
        << (computed.size() == 1 ? "" : "s") << " to " << path.string()
        << "\n";
    return true;
}

std::string
renderText(const std::vector<Finding> &findings)
{
    std::ostringstream out;
    for (const auto &f : findings)
        out << f.path << ":" << f.line << ": [" << f.rule << "] "
            << f.message << "\n";
    return out.str();
}

std::string
renderJson(const std::vector<Finding> &findings)
{
    std::ostringstream out;
    out << "[\n";
    for (size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        out << "  {\"file\": \"" << jsonEscape(f.path)
            << "\", \"line\": " << f.line << ", \"rule\": \""
            << jsonEscape(f.rule) << "\", \"message\": \""
            << jsonEscape(f.message) << "\"}"
            << (i + 1 < findings.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return out.str();
}

} // namespace dora::analyze
