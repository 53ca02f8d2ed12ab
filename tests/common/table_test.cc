/**
 * @file
 * Unit tests for the text-table / CSV emitter.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/table.hh"

namespace dora
{
namespace
{

TEST(FormatFixed, Precision)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatFixed(3.0, 0), "3");
    EXPECT_EQ(formatFixed(-1.5, 1), "-1.5");
}

TEST(TextTable, AlignedOutputContainsAllCells)
{
    TextTable t({"name", "value"});
    t.beginRow();
    t.add("alpha");
    t.add(1.25, 2);
    t.beginRow();
    t.add("b");
    t.add(int64_t{42});

    std::ostringstream out;
    t.print(out);
    const std::string s = out.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.25"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(TextTable, CsvEscapesCommasAndQuotes)
{
    TextTable t({"a", "b"});
    t.beginRow();
    t.add("x,y");
    t.add("say \"hi\"");
    std::ostringstream out;
    t.printCsv(out);
    EXPECT_NE(out.str().find("\"x,y\""), std::string::npos);
    EXPECT_NE(out.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TextTable, CsvHeaderFirst)
{
    TextTable t({"h1", "h2"});
    t.beginRow();
    t.add("v1");
    t.add("v2");
    std::ostringstream out;
    t.printCsv(out);
    EXPECT_EQ(out.str().rfind("h1,h2\n", 0), 0u);
}

TEST(TextTable, ShortRowPadsOnPrint)
{
    TextTable t({"a", "b", "c"});
    t.beginRow();
    t.add("only");
    std::ostringstream out;
    t.print(out);  // must not crash; missing cells blank
    EXPECT_NE(out.str().find("only"), std::string::npos);
}

TEST(TextTable, WriteCsvFailsOnBadPath)
{
    TextTable t({"a"});
    EXPECT_FALSE(t.writeCsv("/nonexistent-dir-xyz/file.csv"));
}

TEST(PrintBanner, ContainsTitle)
{
    std::ostringstream out;
    printBanner(out, "Fig. 1");
    EXPECT_NE(out.str().find("== Fig. 1 =="), std::string::npos);
}

} // namespace
} // namespace dora
