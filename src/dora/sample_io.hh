/**
 * @file
 * Binary payload encoding of one training sample.
 *
 * The trainer's measurement campaign is the expensive part of the
 * pipeline. On the process execution tier each sample is computed in a
 * worker subprocess and crosses the pipe and the results journal as
 * these bytes, so a resumed campaign reads them back instead of
 * re-running the page load.
 */

#ifndef DORA_DORA_SAMPLE_IO_HH
#define DORA_DORA_SAMPLE_IO_HH

#include <string>
#include <string_view>

#include "dora/trainer.hh"

namespace dora
{

/** Bit-exact, checksummed and versioned encoding of one sample. */
std::string serializeTrainingSample(const TrainingSample &s);

/**
 * Decode serializeTrainingSample() output. Returns false (leaving
 * @p out untouched) on checksum/version/shape mismatch.
 */
[[nodiscard]] bool tryDeserializeTrainingSample(std::string_view bytes,
                                                TrainingSample *out);

} // namespace dora

#endif // DORA_DORA_SAMPLE_IO_HH
