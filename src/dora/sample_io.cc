#include "dora/sample_io.hh"

#include <utility>

#include "common/snapshot.hh"

namespace dora
{

namespace
{

constexpr std::string_view kSampleTag = "tsmp";
constexpr uint32_t kSampleVersion = 1;

} // namespace

std::string
serializeTrainingSample(const TrainingSample &s)
{
    SnapshotWriter w;
    w.beginSection(kSampleTag, kSampleVersion);
    w.putDoubles(s.x);
    w.putDouble(s.busMhz);
    w.putDouble(s.voltage);
    w.putDouble(s.loadTimeSec);
    w.putDouble(s.meanPowerW);
    w.putDouble(s.meanTempC);
    return w.finish();
}

bool
tryDeserializeTrainingSample(std::string_view bytes, TrainingSample *out)
{
    SnapshotReader r(bytes);
    if (!r.checksumOk() || !r.beginSection(kSampleTag, kSampleVersion))
        return false;
    TrainingSample s;
    if (!r.getDoubles(&s.x) || !r.getDouble(&s.busMhz) ||
        !r.getDouble(&s.voltage) || !r.getDouble(&s.loadTimeSec) ||
        !r.getDouble(&s.meanPowerW) || !r.getDouble(&s.meanTempC) ||
        !r.atEnd())
        return false;
    *out = std::move(s);
    return true;
}

} // namespace dora
