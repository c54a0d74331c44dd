#include "batch/plan.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/costs.hpp"
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

PlanKey plan_key_for_budget(std::size_t budget, std::size_t n,
                            simt::Transport transport) {
  STTSV_REQUIRE(n >= 1, "problem size must be >= 1");
  STTSV_REQUIRE(budget >= 4,
                "need a budget of at least 4 processors (trivial m=4)");
  struct Candidate {
    Family family;
    std::uint64_t param;
    std::size_t P;
    double words;
  };
  std::vector<Candidate> candidates;
  for (const auto& f : steiner::admissible_processor_counts(budget)) {
    const bool spherical = f.family == "spherical";
    candidates.push_back({spherical ? Family::kSpherical : Family::kBoolean,
                          spherical ? f.q : f.k, f.P,
                          core::steiner_algorithm_words(n, f.m, f.r)});
  }
  for (std::size_t m = 4; m * (m - 1) * (m - 2) / 6 <= budget; ++m) {
    candidates.push_back({Family::kTrivial, m, m * (m - 1) * (m - 2) / 6,
                          core::steiner_algorithm_words(n, m, 3)});
  }
  const Candidate best = *std::min_element(
      candidates.begin(), candidates.end(),
      [](const Candidate& a, const Candidate& b) {
        if (a.words != b.words) return a.words < b.words;
        if ((a.family == Family::kSpherical) !=
            (b.family == Family::kSpherical)) {
          return a.family == Family::kSpherical;
        }
        return a.P > b.P;
      });
  return plan_key(n, best.family, best.param, transport);
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

}  // namespace sttsv::batch
