/**
 * @file
 * Bit-exact binary serialization of RunMeasurement for the process
 * execution tier (exec/proc). A measurement computed in a worker
 * subprocess crosses the pipe — and the results journal — as these
 * bytes; deserialize(serialize(m)) reproduces every field bit-for-bit
 * (doubles travel as raw IEEE-754 bit patterns via common/snapshot).
 *
 * Same-build artifact only: the encoding carries a section version and
 * a checksum, so a stale journal from an older build fails loudly in
 * tryDeserializeRunMeasurement() instead of misparsing.
 */

#ifndef DORA_RUNNER_MEASUREMENT_IO_HH
#define DORA_RUNNER_MEASUREMENT_IO_HH

#include <string>
#include <string_view>
#include <vector>

#include "runner/experiment.hh"

namespace dora
{

/** Encode @p m as a checksummed binary payload. */
std::string serializeRunMeasurement(const RunMeasurement &m);

/**
 * Decode a payload produced by serializeRunMeasurement(). On success
 * @p out holds the bit-identical measurement; on checksum/version/
 * shape mismatch returns false and leaves @p out untouched.
 */
[[nodiscard]] bool
tryDeserializeRunMeasurement(std::string_view bytes, RunMeasurement *out);

/**
 * Concatenate payloads into one checksummed buffer (the process tier
 * ships a whole gang or chunk as one unit result).
 */
std::string packPayloads(const std::vector<std::string> &payloads);

/**
 * Invert packPayloads(). On checksum/shape mismatch returns false and
 * leaves @p out untouched.
 */
[[nodiscard]] bool
tryUnpackPayloads(std::string_view bytes, std::vector<std::string> *out);

} // namespace dora

#endif // DORA_RUNNER_MEASUREMENT_IO_HH
