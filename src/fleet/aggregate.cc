#include "fleet/aggregate.hh"

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "obs/trace.hh"

namespace dora
{

uint64_t
chainDigest(uint64_t chain, uint64_t link)
{
    return hashLabel(hexU64(chain) + ":" + hexU64(link));
}

FleetShardAggregate
FleetShardAggregate::forChunk(size_t governor_count, uint64_t first_cell)
{
    FleetShardAggregate a;
    a.role_ = Role::Chunk;
    a.firstCell_ = first_cell;
    a.digest_ = hashLabel("fleet-chunk");
    a.governors_.resize(governor_count);
    return a;
}

FleetShardAggregate
FleetShardAggregate::forCampaign(size_t governor_count)
{
    FleetShardAggregate a;
    a.role_ = Role::Campaign;
    a.digest_ = hashLabel("fleet-population");
    a.governors_.resize(governor_count);
    return a;
}

void
FleetShardAggregate::pushCell(size_t governor_index,
                              const std::string &cohort, bool new_device,
                              const RunMeasurement &m)
{
    if (role_ != Role::Chunk)
        panic("FleetShardAggregate::pushCell on a campaign "
              "accumulator — cells reduce into chunks, chunks merge "
              "into the campaign");
    if (governor_index >= governors_.size())
        panic("FleetShardAggregate::pushCell: governor %zu of %zu",
              governor_index, governors_.size());

    ++cellCount_;
    digest_ = chainDigest(digest_, runMeasurementDigest(m));

    GovernorAcc &gov = governors_[governor_index];
    ++gov.devices;
    if (m.censored) {
        // A censored PPW of 0 is a flag, not a score: count it,
        // never average it into the distribution.
        ++gov.censored;
    } else {
        ++gov.uncensored;
        gov.ppwSum.add(m.ppw);
        gov.ppw.push(m.ppw);
        gov.loadTime.push(m.loadTimeSec);
    }
    if (m.meetsDeadline)
        ++gov.met;

    CohortAcc &acc = cohorts_[cohort];
    if (acc.uncensored.empty()) {
        acc.uncensored.resize(governors_.size(), 0);
        acc.met.resize(governors_.size(), 0);
        acc.censored.resize(governors_.size(), 0);
        acc.ppwSum.resize(governors_.size());
    }
    if (new_device)
        ++acc.devices;
    if (m.censored) {
        ++acc.censored[governor_index];
    } else {
        ++acc.uncensored[governor_index];
        acc.ppwSum[governor_index].add(m.ppw);
    }
    if (m.meetsDeadline)
        ++acc.met[governor_index];
}

void
FleetShardAggregate::merge(const FleetShardAggregate &next)
{
    if (role_ != Role::Campaign || next.role_ != Role::Chunk)
        panic("FleetShardAggregate::merge: campaign accumulators "
              "absorb chunk aggregates, nothing else");
    if (next.governors_.size() != governors_.size())
        panic("FleetShardAggregate::merge: governor count mismatch "
              "(%zu vs %zu)",
              governors_.size(), next.governors_.size());
    if (next.firstCell_ != firstCell_ + cellCount_)
        panic("FleetShardAggregate::merge: chunk starting at cell "
              "%llu does not follow prefix ending at cell %llu — "
              "chunks must fold in chunk-index order",
              static_cast<unsigned long long>(next.firstCell_),
              static_cast<unsigned long long>(firstCell_ + cellCount_));

    cellCount_ += next.cellCount_;
    digest_ = chainDigest(digest_, next.digest_);

    for (size_t g = 0; g < governors_.size(); ++g) {
        GovernorAcc &into = governors_[g];
        const GovernorAcc &from = next.governors_[g];
        into.devices += from.devices;
        into.censored += from.censored;
        into.met += from.met;
        into.uncensored += from.uncensored;
        into.ppwSum.merge(from.ppwSum);
        into.ppw.merge(from.ppw);
        into.loadTime.merge(from.loadTime);
    }

    for (const auto &[name, from] : next.cohorts_) {
        CohortAcc &into = cohorts_[name];
        if (into.uncensored.empty()) {
            into.uncensored.resize(governors_.size(), 0);
            into.met.resize(governors_.size(), 0);
            into.censored.resize(governors_.size(), 0);
            into.ppwSum.resize(governors_.size());
        }
        into.devices += from.devices;
        for (size_t g = 0; g < governors_.size(); ++g) {
            into.uncensored[g] += from.uncensored[g];
            into.met[g] += from.met[g];
            into.censored[g] += from.censored[g];
            into.ppwSum[g].merge(from.ppwSum[g]);
        }
    }
}

std::string
FleetShardAggregate::serialize() const
{
    SnapshotWriter w;
    w.beginSection("fagg", 1);
    w.putU8(static_cast<uint8_t>(role_));
    w.putU64(firstCell_);
    w.putU64(cellCount_);
    w.putU64(digest_);
    w.putSize(governors_.size());
    for (const GovernorAcc &gov : governors_) {
        w.putU64(gov.devices);
        w.putU64(gov.censored);
        w.putU64(gov.met);
        w.putU64(gov.uncensored);
        w.putDouble(gov.ppwSum.sum);
        w.putDouble(gov.ppwSum.compensation);
        gov.ppw.snapshot(w);
        gov.loadTime.snapshot(w);
    }
    w.putSize(cohorts_.size());
    for (const auto &[name, acc] : cohorts_) {
        w.putString(name);
        w.putU64(acc.devices);
        w.putU64s(acc.uncensored);
        w.putU64s(acc.met);
        w.putU64s(acc.censored);
        for (const NeumaierSum &sum : acc.ppwSum) {
            w.putDouble(sum.sum);
            w.putDouble(sum.compensation);
        }
    }
    return w.finish();
}

bool
FleetShardAggregate::tryDeserialize(std::string_view bytes)
{
    SnapshotReader r(bytes);
    if (!r.checksumOk() || !r.beginSection("fagg", 1))
        return false;
    FleetShardAggregate a;
    uint8_t role;
    size_t gcount;
    if (!r.getU8(&role) || role > 1 || !r.getU64(&a.firstCell_) ||
        !r.getU64(&a.cellCount_) || !r.getU64(&a.digest_) ||
        !r.getSize(&gcount))
        return false;
    a.role_ = static_cast<Role>(role);
    a.governors_.resize(gcount);
    for (GovernorAcc &gov : a.governors_) {
        if (!r.getU64(&gov.devices) || !r.getU64(&gov.censored) ||
            !r.getU64(&gov.met) || !r.getU64(&gov.uncensored) ||
            !r.getDouble(&gov.ppwSum.sum) ||
            !r.getDouble(&gov.ppwSum.compensation) ||
            !gov.ppw.tryRestore(r) || !gov.loadTime.tryRestore(r))
            return false;
    }
    size_t cohort_count;
    if (!r.getSize(&cohort_count))
        return false;
    for (size_t i = 0; i < cohort_count; ++i) {
        std::string name;
        CohortAcc acc;
        if (!r.getString(&name) || !r.getU64(&acc.devices) ||
            !r.getU64s(&acc.uncensored) || !r.getU64s(&acc.met) ||
            !r.getU64s(&acc.censored))
            return false;
        if (acc.uncensored.size() != gcount ||
            acc.met.size() != gcount || acc.censored.size() != gcount)
            return false;
        acc.ppwSum.resize(gcount);
        for (NeumaierSum &sum : acc.ppwSum)
            if (!r.getDouble(&sum.sum) ||
                !r.getDouble(&sum.compensation))
                return false;
        a.cohorts_.emplace(std::move(name), std::move(acc));
    }
    if (!r.atEnd())
        return false;
    *this = std::move(a);
    return true;
}

} // namespace dora
