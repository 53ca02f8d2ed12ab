/**
 * @file
 * CSV export/import for measurement samples.
 *
 * The trainer's measurement campaign is the expensive part of the
 * pipeline; persisting the raw (features, targets) samples lets model
 * studies (e.g. the fig05 response-surface comparison, or offline
 * experimentation in a spreadsheet/notebook) re-fit without re-running
 * hundreds of simulated page loads.
 */

#ifndef DORA_DORA_SAMPLE_IO_HH
#define DORA_DORA_SAMPLE_IO_HH

#include <string>
#include <string_view>
#include <vector>

#include "dora/trainer.hh"

namespace dora
{

/**
 * Bit-exact binary encoding of one sample (checksummed, versioned)
 * for the process execution tier: samples computed in a worker
 * subprocess cross the pipe and the results journal as these bytes.
 * CSV is for human/export use; this is the lossless wire form.
 */
std::string serializeTrainingSample(const TrainingSample &s);

/**
 * Decode serializeTrainingSample() output. Returns false (leaving
 * @p out untouched) on checksum/version/shape mismatch.
 */
[[nodiscard]] bool tryDeserializeTrainingSample(std::string_view bytes,
                                                TrainingSample *out);

/** Serialize samples as CSV (header + one row per sample). */
std::string samplesToCsv(const std::vector<TrainingSample> &samples);

/**
 * Parse samples from CSV text produced by samplesToCsv(): a header
 * line, then rows of kNumFeatures + 5 cells, each one whole finite
 * number. Returns false with a diagnostic naming the line in @p error
 * (leaving @p out untouched) on malformed input.
 */
[[nodiscard]] bool trySamplesFromCsv(const std::string &text,
                                     std::vector<TrainingSample> *out,
                                     std::string *error);

/** trySamplesFromCsv() that fatal()s on malformed input. */
std::vector<TrainingSample> samplesFromCsv(const std::string &text);

/** Write samples to @p path; warns and returns false on failure. */
bool saveSamples(const std::vector<TrainingSample> &samples,
                 const std::string &path);

/**
 * Load samples from @p path; returns an empty vector when the file is
 * missing (callers treat that as "collect fresh").
 */
std::vector<TrainingSample> loadSamples(const std::string &path);

} // namespace dora

#endif // DORA_DORA_SAMPLE_IO_HH
