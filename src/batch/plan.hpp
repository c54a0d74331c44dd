#pragma once
// Execution plans for repeated STTSV runs against one tensor shape
// (DESIGN.md §9). Building a run's combinatorial state — the Steiner
// system, the tetrahedral partition, the vector distribution and the
// per-pair exchange walk — costs far more than a single apply once the
// tensor is resident, and none of it depends on the vector values. A Plan
// captures all of it immutably, once per (n, Steiner family, parameter,
// transport); callers that serve many vectors (serve::Frontend,
// multi-start HOPM, CP sweeps) share one Plan. Plan::build is the only
// way to get one; plan_key_for_budget picks the key for a processor
// budget.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/parallel_sttsv.hpp"
#include "partition/exchange_walk.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/machine.hpp"

namespace sttsv::batch {

/// Which built-in Steiner (m, r, 3) construction backs the partition.
enum class Family : std::uint8_t {
  kSpherical,  // S(q²+1, q+1, 3), param = q (prime power)
  kBoolean,    // S(2^k, 4, 3),    param = k >= 3
  kTrivial,    // S(m, 3, 3),      param = m >= 4
};

/// Everything a plan's structure depends on. `processors` is derived
/// from (family, param) — plan_key() fills it — but stays in the key so
/// it is self-describing and a mismatch fails loudly in Plan::build.
struct PlanKey {
  std::size_t n = 0;           // logical vector/tensor dimension
  std::size_t processors = 0;  // P = number of Steiner blocks
  Family family = Family::kSpherical;
  std::uint64_t param = 0;     // q / k / m, per Family
  simt::Transport transport = simt::Transport::kPointToPoint;
};

/// Builds a key with `processors` computed from the family formulas
/// (spherical q(q²+1), boolean 2^k(2^k-1)(2^k-2)/24, trivial C(m,3)).
PlanKey plan_key(std::size_t n, Family family, std::uint64_t param,
                 simt::Transport transport);

/// The key of the plan with the fewest words per rank within `budget`
/// ranks: over the spherical and Boolean systems with P <= budget
/// (steiner::admissible_processor_counts) and the trivial S(m, 3, 3) for
/// every m >= 4 with C(m, 3) <= budget, the fewest words the busiest rank
/// sends, core::steiner_algorithm_words(n, m, r) (exact for every n).
/// More ranks alone do not win: a high-replication family can cost more
/// words than a smaller spherical one. Ties prefer spherical, then the
/// larger P. Throws PreconditionError for n == 0 or a budget below 4
/// (trivial m = 4).
PlanKey plan_key_for_budget(std::size_t budget, std::size_t n,
                            simt::Transport transport);

/// An immutable, shareable plan: partition + distribution + the exchange
/// walk of Algorithm 5 (partition::ExchangeWalk) and its identity host
/// schedule, built once and read by every batched run.
class Plan {
 public:
  using BlockSlice = partition::ExchangeWalk::BlockSlice;
  using PeerExchange = partition::ExchangeWalk::PeerExchange;

  /// Builds the plan for `key` (constructs the Steiner system, partition,
  /// distribution, and exchange walks). Throws PreconditionError on an
  /// inadmissible key (e.g. non-prime-power q).
  static std::shared_ptr<const Plan> build(const PlanKey& key);

  [[nodiscard]] const PlanKey& key() const { return key_; }
  [[nodiscard]] const partition::TetraPartition& partition() const {
    return *part_;
  }
  [[nodiscard]] const partition::VectorDistribution& distribution() const {
    return *dist_;
  }
  [[nodiscard]] std::size_t num_processors() const { return key_.processors; }

  /// Exchanges of rank p, ascending peer order; only peers with traffic.
  [[nodiscard]] const std::vector<PeerExchange>& exchanges(
      std::size_t p) const {
    return walk_.exchanges(p);
  }

  /// The cached exchange walk every batched run replays.
  [[nodiscard]] const partition::ExchangeWalk& walk() const { return walk_; }

  /// The walk lifted onto hosts at the identity placement.
  [[nodiscard]] const core::HostSchedule& schedule() const { return schedule_; }

  /// Owned blocks of p (cached copy of partition().owned_blocks(p)).
  [[nodiscard]] const std::vector<partition::BlockCoord>& owned(
      std::size_t p) const {
    return walk_.owned(p);
  }

  /// Position of row block i within R_p (p's local block numbering).
  [[nodiscard]] std::size_t local_index(std::size_t p, std::size_t i) const {
    return walk_.local_index(p, i);
  }

  /// A machine sized for this plan.
  [[nodiscard]] simt::Machine make_machine() const {
    return simt::Machine(key_.processors);
  }

  /// Pre-sizes a machine's BufferPool from this plan's exchange walk: for
  /// every (rank, peer) message of up to `lanes` aggregated vectors, the
  /// serving slab bucket is topped up, so the first batch — not just the
  /// second — runs the message path allocation-free (DESIGN.md §12).
  /// Also covers ReliableExchange's framed copies and each rank's row blocks.
  void prewarm_pool(simt::BufferPool& pool, std::size_t lanes) const;

 private:
  Plan(PlanKey key, std::unique_ptr<partition::TetraPartition> part,
       std::unique_ptr<partition::VectorDistribution> dist);

  PlanKey key_;
  std::unique_ptr<partition::TetraPartition> part_;
  std::unique_ptr<partition::VectorDistribution> dist_;
  partition::ExchangeWalk walk_;  // built from *part_, *dist_
  core::HostSchedule schedule_;   // built from walk_
};

}  // namespace sttsv::batch
