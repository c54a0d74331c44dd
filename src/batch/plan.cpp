#include "batch/plan.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"

namespace sttsv::batch {

namespace {

std::size_t family_processor_count(Family family, std::uint64_t param) {
  switch (family) {
    case Family::kSpherical:
      return static_cast<std::size_t>(param * (param * param + 1));
    case Family::kBoolean: {
      const std::uint64_t m = 1ULL << param;
      return static_cast<std::size_t>(m * (m - 1) * (m - 2) / 24);
    }
    case Family::kTrivial:
      return static_cast<std::size_t>(param * (param - 1) * (param - 2) / 6);
  }
  STTSV_CHECK(false, "unknown Steiner family");
  return 0;
}

steiner::SteinerSystem build_system(const PlanKey& key) {
  switch (key.family) {
    case Family::kSpherical:
      return steiner::spherical_system(key.param);
    case Family::kBoolean:
      return steiner::boolean_quadruple_system(
          static_cast<unsigned>(key.param));
    case Family::kTrivial:
      return steiner::trivial_triple_system(
          static_cast<std::size_t>(key.param));
  }
  STTSV_CHECK(false, "unknown Steiner family");
}

}  // namespace

PlanKey plan_key(std::size_t n, Family family, std::uint64_t param,
                 simt::Transport transport) {
  PlanKey key;
  key.n = n;
  key.family = family;
  key.param = param;
  key.transport = transport;
  key.processors = family_processor_count(family, param);
  return key;
}

std::size_t PlanKeyHash::operator()(const PlanKey& k) const noexcept {
  std::size_t h = k.n;
  const auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(k.processors);
  mix(static_cast<std::size_t>(k.family));
  mix(static_cast<std::size_t>(k.param));
  mix(static_cast<std::size_t>(k.transport));
  mix(static_cast<std::size_t>(k.epoch));
  return h;
}

Plan::Plan(PlanKey key, std::unique_ptr<partition::TetraPartition> part,
           std::unique_ptr<partition::VectorDistribution> dist)
    : key_(key),
      part_(std::move(part)),
      dist_(std::move(dist)),
      walk_(*part_, *dist_),
      schedule_(walk_) {}

void Plan::prewarm_pool(simt::BufferPool& pool, std::size_t lanes) const {
  STTSV_REQUIRE(lanes >= 1, "prewarm needs at least one lane");
  constexpr std::size_t kRexHeaderWords = 8;  // >= data-frame header
  for (std::size_t p = 0; p < walk_.num_processors(); ++p) {
    // Bucket -> simultaneous buffers rank p needs in the worst phase.
    // x and y phases never overlap, so the requirement is the per-phase
    // max, not the sum. Each message may exist twice at once under
    // ReliableExchange (retained payload + framed wire copy), and the
    // frame rides in the header bucket of payload + header words.
    std::unordered_map<std::size_t, std::size_t> x_need;
    std::unordered_map<std::size_t, std::size_t> y_need;
    // Row blocks: x alone in the x phase, x and y around the kernels.
    const std::size_t blocks = simt::BufferPool::bucket_capacity(
        part_->R(p).size() * dist_->block_length_b() * lanes);
    ++x_need[blocks];
    y_need[blocks] += 2;
    for (const PeerExchange& ex : walk_.exchanges(p)) {
      if (ex.x_words > 0) {
        ++x_need[simt::BufferPool::bucket_capacity(ex.x_words * lanes)];
        ++x_need[simt::BufferPool::bucket_capacity(ex.x_words * lanes +
                                                   kRexHeaderWords)];
      }
      if (ex.y_words > 0) {
        ++y_need[simt::BufferPool::bucket_capacity(ex.y_words * lanes)];
        ++y_need[simt::BufferPool::bucket_capacity(ex.y_words * lanes +
                                                   kRexHeaderWords)];
      }
    }
    for (auto& [capacity, count] : x_need) {
      const auto yit = y_need.find(capacity);
      const std::size_t need =
          yit == y_need.end() ? count : std::max(count, yit->second);
      pool.reserve(p, capacity, need);
    }
    for (const auto& [capacity, count] : y_need) {
      if (!x_need.contains(capacity)) pool.reserve(p, capacity, count);
    }
  }
}

std::shared_ptr<const Plan> Plan::build(const PlanKey& key) {
  STTSV_REQUIRE(key.n >= 1, "plan needs a positive dimension");
  auto part = std::make_unique<partition::TetraPartition>(
      partition::TetraPartition::build(build_system(key)));
  STTSV_REQUIRE(key.processors == part->num_processors(),
                "plan key processor count does not match the family");
  auto dist =
      std::make_unique<partition::VectorDistribution>(*part, key.n);
  return std::shared_ptr<const Plan>(
      new Plan(key, std::move(part), std::move(dist)));
}

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {
  STTSV_REQUIRE(capacity >= 1, "plan cache needs capacity >= 1");
}

std::shared_ptr<const Plan> PlanCache::get(const PlanKey& key) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    ++hits_;
    obs::Span span("plan.cache-hit", obs::Category::kPlanCache,
                   key.processors);
    entries_.splice(entries_.begin(), entries_, it->second);
    return it->second->second;
  }
  ++misses_;
  obs::Span span("plan.build", obs::Category::kPlanCache, key.processors);
  auto plan = Plan::build(key);
  entries_.emplace_front(key, plan);
  index_[key] = entries_.begin();
  if (entries_.size() > capacity_) {
    index_.erase(entries_.back().first);
    entries_.pop_back();
  }
  return plan;
}

void PlanCache::clear() {
  entries_.clear();
  index_.clear();
}

void PlanCache::publish_metrics(obs::MetricsRegistry& out,
                                const std::string& prefix) const {
  out.set_counter(prefix + ".hits", hits_);
  out.set_counter(prefix + ".misses", misses_);
  out.set_counter(prefix + ".size", entries_.size());
  out.set_counter(prefix + ".capacity", capacity_);
}

}  // namespace sttsv::batch
