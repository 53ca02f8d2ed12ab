#include "dora/sample_io.hh"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "dora/features.hh"

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

std::string
samplesToCsv(const std::vector<TrainingSample> &samples)
{
    std::ostringstream out;
    out.precision(17);
    for (const auto &name : featureNames())
        out << name << ",";
    out << "bus_mhz,voltage,load_time_s,mean_power_w,mean_temp_c\n";
    for (const auto &s : samples) {
        if (s.x.size() != kNumFeatures)
            fatal("samplesToCsv: sample with %zu features", s.x.size());
        for (double v : s.x)
            out << v << ",";
        out << s.busMhz << "," << s.voltage << "," << s.loadTimeSec
            << "," << s.meanPowerW << "," << s.meanTempC << "\n";
    }
    return out.str();
}

bool
trySamplesFromCsv(const std::string &text,
                  std::vector<TrainingSample> *out, std::string *error)
{
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line)) {
        *error = "empty input";
        return false;
    }

    const size_t expected_cols = kNumFeatures + 5;
    std::vector<TrainingSample> samples;
    size_t line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        std::istringstream row(line);
        std::vector<double> cols;
        std::string cell;
        while (std::getline(row, cell, ',')) {
            // The whole cell must be one finite number: a prefix parse
            // would load "1.5abc" as 1.5.
            double value = 0.0;
            const char *last = cell.data() + cell.size();
            const auto [end, ec] =
                std::from_chars(cell.data(), last, value);
            if (ec != std::errc() || end != last || !std::isfinite(value)) {
                *error = "line " + std::to_string(line_no) + " column " +
                    std::to_string(cols.size() + 1) + ": '" + cell +
                    "' is not a finite number";
                return false;
            }
            cols.push_back(value);
        }
        if (cols.size() != expected_cols) {
            *error = "line " + std::to_string(line_no) + " has " +
                std::to_string(cols.size()) + " columns, expected " +
                std::to_string(expected_cols);
            return false;
        }
        TrainingSample s;
        s.x.assign(cols.begin(),
                   cols.begin() + static_cast<long>(kNumFeatures));
        s.busMhz = cols[kNumFeatures + 0];
        s.voltage = cols[kNumFeatures + 1];
        s.loadTimeSec = cols[kNumFeatures + 2];
        s.meanPowerW = cols[kNumFeatures + 3];
        s.meanTempC = cols[kNumFeatures + 4];
        samples.push_back(std::move(s));
    }
    *out = std::move(samples);
    return true;
}

std::vector<TrainingSample>
samplesFromCsv(const std::string &text)
{
    std::vector<TrainingSample> samples;
    std::string error;
    if (!trySamplesFromCsv(text, &samples, &error))
        fatal("samplesFromCsv: %s", error.c_str());
    return samples;
}

bool
saveSamples(const std::vector<TrainingSample> &samples,
            const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        warn("saveSamples: cannot open %s", path.c_str());
        return false;
    }
    out << samplesToCsv(samples);
    return static_cast<bool>(out);
}

std::vector<TrainingSample>
loadSamples(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return {};
    std::ostringstream buf;
    buf << in.rdbuf();
    return samplesFromCsv(buf.str());
}

} // namespace dora
