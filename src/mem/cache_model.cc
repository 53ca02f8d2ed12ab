#include "mem/cache_model.hh"

#include "common/logging.hh"
#include "common/snapshot.hh"

namespace dora
{

namespace
{

bool
isPowerOfTwo(uint64_t x)
{
    return x && !(x & (x - 1));
}

} // namespace

const char *
replacementPolicyName(ReplacementPolicy policy)
{
    switch (policy) {
      case ReplacementPolicy::Lru:
        return "lru";
      case ReplacementPolicy::TreePlru:
        return "tree-plru";
      case ReplacementPolicy::Random:
        return "random";
    }
    return "?";
}

CacheModel::CacheModel(const CacheConfig &config)
    : config_(config)
{
    if (config.lineBytes == 0 || config.associativity == 0)
        fatal("CacheModel %s: zero line size or associativity",
              config.name.c_str());
    const uint64_t lines = config.sizeBytes / config.lineBytes;
    if (lines == 0 || lines % config.associativity != 0)
        fatal("CacheModel %s: size %llu not divisible into %u-way sets",
              config.name.c_str(),
              static_cast<unsigned long long>(config.sizeBytes),
              config.associativity);
    numSets_ = static_cast<uint32_t>(lines / config.associativity);
    if (!isPowerOfTwo(numSets_))
        fatal("CacheModel %s: %u sets is not a power of two",
              config.name.c_str(), numSets_);
    if (config.numRequestors == 0)
        fatal("CacheModel %s: need at least one requestor",
              config.name.c_str());
    if (config.policy == ReplacementPolicy::TreePlru &&
        (!isPowerOfTwo(config.associativity) ||
         config.associativity > 32))
        fatal("CacheModel %s: tree-PLRU needs a power-of-two "
              "associativity <= 32", config.name.c_str());
    const size_t total =
        static_cast<size_t>(numSets_) * config.associativity;
    tags_.assign(total, kInvalidTag);
    lastUse_.assign(total, 0);
    owners_.assign(total, 0);
    owned_.assign(config.numRequestors, 0);
    stats_.assign(config.numRequestors, CacheStats());
    if (config.policy == ReplacementPolicy::TreePlru)
        plruBits_.assign(numSets_, 0);
}

void
CacheModel::touch(uint32_t set, uint32_t way)
{
    // accessClock_ is pre-incremented in access(), so a touched way
    // always stamps >= 1: lastUse_ == 0 is reserved for invalid.
    lastUse_[static_cast<size_t>(set) * config_.associativity + way] =
        accessClock_;
    if (config_.policy != ReplacementPolicy::TreePlru)
        return;
    // Walk the PLRU tree from the root to the touched leaf, pointing
    // every node on the path *away* from it.
    uint32_t &bits = plruBits_[set];
    const uint32_t assoc = config_.associativity;
    uint32_t node = 1;  // heap-indexed internal nodes, root = 1
    uint32_t lo = 0, hi = assoc;
    while (hi - lo > 1) {
        const uint32_t mid = (lo + hi) / 2;
        if (way < mid) {
            bits |= (1u << node);  // next victim: right subtree
            node = node * 2;
            hi = mid;
        } else {
            bits &= ~(1u << node);  // next victim: left subtree
            node = node * 2 + 1;
            lo = mid;
        }
    }
}

uint32_t
CacheModel::chooseVictim(uint32_t set)
{
    const uint32_t assoc = config_.associativity;
    const uint64_t *use =
        &lastUse_[static_cast<size_t>(set) * assoc];

    if (config_.policy == ReplacementPolicy::Lru) {
        // Branch-free min-reduction over the stamps. Invalid ways carry
        // stamp 0 < any live stamp (>= 1), and the strict < keeps the
        // lowest index on ties, so this is exactly the classic
        // first-invalid-else-LRU scan without the two-pass branches.
        uint32_t victim = 0;
        uint64_t best = use[0];
        for (uint32_t w = 1; w < assoc; ++w) {
            const bool better = use[w] < best;
            best = better ? use[w] : best;
            victim = better ? w : victim;
        }
        return victim;
    }

    // Invalid ways first for the other policies.
    for (uint32_t w = 0; w < assoc; ++w)
        if (use[w] == 0)
            return w;

    switch (config_.policy) {
      case ReplacementPolicy::TreePlru: {
          const uint32_t bits = plruBits_[set];
          uint32_t node = 1;
          uint32_t lo = 0, hi = assoc;
          while (hi - lo > 1) {
              const uint32_t mid = (lo + hi) / 2;
              if (bits & (1u << node)) {
                  node = node * 2 + 1;  // right subtree is older
                  lo = mid;
              } else {
                  node = node * 2;
                  hi = mid;
              }
          }
          return lo;
      }
      case ReplacementPolicy::Random: {
          // xorshift64*: deterministic, independent of the RNG library
          // so cache behaviour is reproducible in isolation.
          randState_ ^= randState_ >> 12;
          randState_ ^= randState_ << 25;
          randState_ ^= randState_ >> 27;
          return static_cast<uint32_t>(
              (randState_ * 0x2545F4914F6CDD1Dull) % assoc);
      }
      case ReplacementPolicy::Lru:
        break;  // handled above
    }
    return 0;
}

bool
CacheModel::access(uint64_t line_addr, uint32_t requestor)
{
    if (requestor >= stats_.size())
        panic("CacheModel %s: requestor %u out of range",
              config_.name.c_str(), requestor);
    if (line_addr == kInvalidTag)
        panic("CacheModel %s: line address equals the invalid tag",
              config_.name.c_str());

    ++accessClock_;
    auto &st = stats_[requestor];
    ++st.accesses;

    const uint32_t set = static_cast<uint32_t>(line_addr) & (numSets_ - 1);
    const uint64_t tag = line_addr;  // full line address as tag is fine
    const size_t base = static_cast<size_t>(set) * config_.associativity;
    const uint64_t *tags = &tags_[base];

    // Probe loop touches only the contiguous tag run: invalid ways
    // hold kInvalidTag, so a tag match is a hit.
    for (uint32_t w = 0; w < config_.associativity; ++w) {
        if (tags[w] == tag) {
            // A hit transfers ownership of the line to the requestor.
            uint32_t &owner = owners_[base + w];
            if (owner != requestor) {
                --owned_[owner];
                ++owned_[requestor];
                owner = requestor;
            }
            touch(set, w);
            return true;
        }
    }

    ++st.misses;
    const uint32_t victim_idx = chooseVictim(set);
    const size_t victim = base + victim_idx;
    if (lastUse_[victim] != 0) {
        const uint32_t victim_owner = owners_[victim];
        auto &victim_st = stats_[victim_owner];
        if (victim_owner == requestor)
            ++victim_st.selfEvictions;
        else
            ++victim_st.interferenceEvictions;
        --owned_[victim_owner];
    }
    ++owned_[requestor];
    tags_[victim] = tag;
    owners_[victim] = requestor;
    touch(set, victim_idx);
    return false;
}

void
CacheModel::flush()
{
    // Invalid ways carry kInvalidTag and stamp 0; flushing writes both
    // (and drops all ownership).
    tags_.assign(tags_.size(), kInvalidTag);
    lastUse_.assign(lastUse_.size(), 0);
    owned_.assign(owned_.size(), 0);
}

void
CacheModel::resetStats()
{
    for (auto &st : stats_)
        st = CacheStats();
}

const CacheStats &
CacheModel::stats(uint32_t requestor) const
{
    if (requestor >= stats_.size())
        panic("CacheModel %s: requestor %u out of range",
              config_.name.c_str(), requestor);
    return stats_[requestor];
}

CacheStats
CacheModel::totalStats() const
{
    CacheStats total;
    for (const auto &st : stats_) {
        total.accesses += st.accesses;
        total.misses += st.misses;
        total.interferenceEvictions += st.interferenceEvictions;
        total.selfEvictions += st.selfEvictions;
    }
    return total;
}

uint64_t
CacheModel::ownedLines(uint32_t requestor) const
{
    if (requestor >= owned_.size())
        panic("CacheModel %s: requestor %u out of range",
              config_.name.c_str(), requestor);
    return owned_[requestor];
}

double
CacheModel::occupancyFraction(uint32_t requestor) const
{
    // Fraction of total capacity (not of currently-valid lines).
    return static_cast<double>(ownedLines(requestor)) /
        static_cast<double>(tags_.size());
}

double
CacheModel::occupancyFractionScan(uint32_t requestor) const
{
    uint64_t owned = 0;
    for (size_t i = 0; i < tags_.size(); ++i)
        if (lastUse_[i] != 0 && owners_[i] == requestor)
            ++owned;
    return static_cast<double>(owned) / static_cast<double>(tags_.size());
}

void
CacheModel::snapshot(SnapshotWriter &w) const
{
    w.beginSection("cach", 1);
    // Geometry fingerprint: restore only into an identical cache.
    w.putU64(config_.sizeBytes);
    w.putU32(config_.associativity);
    w.putU32(config_.lineBytes);
    w.putU32(config_.numRequestors);
    w.putU8(static_cast<uint8_t>(config_.policy));
    w.putU64s(tags_);
    w.putU64s(lastUse_);
    w.putU32s(owners_);
    w.putU64s(owned_);
    for (const CacheStats &s : stats_) {
        w.putU64(s.accesses);
        w.putU64(s.misses);
        w.putU64(s.interferenceEvictions);
        w.putU64(s.selfEvictions);
    }
    w.putU32s(plruBits_);
    w.putU64(accessClock_);
    w.putU64(randState_);
}

bool
CacheModel::tryRestore(SnapshotReader &r)
{
    if (!r.beginSection("cach", 1))
        return false;
    uint64_t size_bytes;
    uint32_t assoc, line_bytes, requestors;
    uint8_t policy;
    if (!r.getU64(&size_bytes) || !r.getU32(&assoc) ||
        !r.getU32(&line_bytes) || !r.getU32(&requestors) ||
        !r.getU8(&policy))
        return false;
    if (size_bytes != config_.sizeBytes ||
        assoc != config_.associativity ||
        line_bytes != config_.lineBytes ||
        requestors != config_.numRequestors ||
        policy != static_cast<uint8_t>(config_.policy))
        return false;
    std::vector<uint64_t> tags, last_use, owned;
    std::vector<uint32_t> owners, plru;
    if (!r.getU64s(&tags) || !r.getU64s(&last_use) ||
        !r.getU32s(&owners) || !r.getU64s(&owned))
        return false;
    if (tags.size() != tags_.size() || last_use.size() != tags_.size() ||
        owners.size() != tags_.size() || owned.size() != owned_.size())
        return false;
    // Snapshots may hold stale tags in invalid ways (stamp 0); the
    // probes need kInvalidTag there.
    for (size_t i = 0; i < tags.size(); ++i) {
        if (last_use[i] == 0)
            tags[i] = kInvalidTag;
        else if (tags[i] == kInvalidTag)
            return false;
    }
    std::vector<CacheStats> stats(stats_.size());
    for (CacheStats &s : stats)
        if (!r.getU64(&s.accesses) || !r.getU64(&s.misses) ||
            !r.getU64(&s.interferenceEvictions) ||
            !r.getU64(&s.selfEvictions))
            return false;
    uint64_t clock, rand_state;
    if (!r.getU32s(&plru) || plru.size() != plruBits_.size() ||
        !r.getU64(&clock) || !r.getU64(&rand_state))
        return false;
    tags_ = std::move(tags);
    lastUse_ = std::move(last_use);
    owners_ = std::move(owners);
    owned_ = std::move(owned);
    stats_ = std::move(stats);
    plruBits_ = std::move(plru);
    accessClock_ = clock;
    randState_ = rand_state;
    return true;
}

} // namespace dora
