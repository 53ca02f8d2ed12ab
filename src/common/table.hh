/**
 * @file
 * Text-table and CSV emission used by the benchmark harness.
 *
 * Every figure/table bench prints its series through TextTable so the
 * output is aligned, diff-able, and (via writeCsv) machine-readable for
 * replotting against the paper.
 */

#ifndef DORA_COMMON_TABLE_HH
#define DORA_COMMON_TABLE_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace dora
{

/**
 * A simple column-aligned text table.
 *
 * Cells are stored as strings; numeric convenience overloads format with
 * a fixed precision chosen per call.
 */
class TextTable
{
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Begin a new row; subsequent add() calls fill it left to right. */
    void beginRow();

    /** Append a string cell to the current row. */
    void add(std::string cell);

    /** Append a numeric cell formatted with @p precision decimals. */
    void add(double value, int precision = 3);

    /** Append an integer cell. */
    void add(int64_t value);

    /** Render the table, column-aligned, to @p os. */
    void print(std::ostream &os) const;

    /** Render the table as CSV (headers first) to @p os. */
    void printCsv(std::ostream &os) const;

    /** Write CSV to @p path; warns and returns false on I/O failure. */
    bool writeCsv(const std::string &path) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision (printf "%.*f"). */
std::string formatFixed(double value, int precision);

/** Print a "== title ==" section banner to @p os. */
void printBanner(std::ostream &os, const std::string &title);

} // namespace dora

#endif // DORA_COMMON_TABLE_HH
