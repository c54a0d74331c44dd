#pragma once
// Rank-loss recovery (DESIGN.md §15): run Algorithm 5 under a liveness-
// aware reliable exchange, and when a peer is declared dead, shrink the
// role assignment to the survivors, redistribute exactly the orphaned
// vector shares, and re-run — looping until a run completes or the
// shrink budget is spent.
//
// Redistribution is *verified*: the planner computes the block/slice
// movement diff in closed form (only roles hosted on dead ranks move;
// tensor blocks never travel — the new host regenerates them from the
// owner-compute invariant), the mover charges every word to the ledger's
// recovery channel, and the caller checks measured == planned to the
// word. The from-scratch comparator (laying out the full distribution
// anew) bounds how much the diff saves.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/parallel_sttsv.hpp"
#include "elastic/assignment.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/machine.hpp"
#include "simt/reliable_exchange.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::elastic {

struct RecoveryOptions {
  simt::RetryPolicy retry = {};
  simt::LivenessPolicy liveness{true, 3};
  /// Distinct rank-loss verdicts survived before giving up (rethrow).
  std::size_t max_shrinks = 4;
  simt::Transport transport = simt::Transport::kPointToPoint;
};

/// One orphaned role re-homed: its x shares (words) travel from the
/// coordinator to the new host. words == 0 when the coordinator itself
/// adopts the role (a local copy).
struct RoleMove {
  std::size_t role = 0;
  std::size_t to = 0;
  std::size_t words = 0;
};

struct RedistributionPlan {
  std::vector<RoleMove> moves;
  /// Donor of every moved share: the lowest live rank. Honest because
  /// the submitting layer retains x (parallel_sttsv_batch takes it by
  /// const reference; serve holds the job) — the coordinator re-slices
  /// from the retained input.
  std::size_t coordinator = 0;
  /// Σ move words: the minimal diff, checked against measured traffic.
  std::uint64_t planned_words = 0;
  /// Tensor entries the adopting hosts regenerate locally (never sent).
  std::uint64_t regenerated_entries = 0;
  /// Comparator: words to lay out the whole distribution from scratch.
  std::uint64_t from_scratch_words = 0;
};

/// Computes the movement diff between two assignments over the same
/// partition: exactly the roles whose host changed.
[[nodiscard]] RedistributionPlan plan_redistribution(
    const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, const BlockAssignment& from,
    const BlockAssignment& to);

/// Executes the plan as one exchange over `exchanger`, labelled
/// "redistribution", of recovery-flagged envelopes (charged to the
/// ledger's recovery channel), one aggregated payload per adopting host,
/// slices in (role ascending, R_role order) walk. Verifies every
/// delivered slice word-for-word against the source vector and returns
/// the measured recovery-channel delta. ReliableExchange rejects
/// recovery envelopes with PreconditionError: how its framing would
/// charge them is not defined yet.
std::uint64_t execute_redistribution(simt::Exchanger& exchanger,
                                     const partition::TetraPartition& part,
                                     const partition::VectorDistribution& dist,
                                     const std::vector<double>& x,
                                     const RedistributionPlan& plan);

struct RecoveryOutcome {
  core::ParallelRunResult result;
  /// The assignment the successful run executed under.
  BlockAssignment assignment;
  /// One detector verdict per survived shrink, in order.
  std::vector<simt::RankLossReport> reports;
  std::vector<RedistributionPlan> redistributions;
  /// Measured recovery-channel words, summed over all shrinks; equals
  /// Σ plan.planned_words (checked).
  std::uint64_t redistribution_words = 0;
  std::size_t shrinks = 0;
  /// Σ silent attempts that backed the verdicts — detection latency in
  /// protocol attempts.
  std::size_t detection_attempts = 0;
};

/// The recovery loop. Runs core::parallel_sttsv at the assignment's
/// placement under kFailFast + the given liveness policy; on
/// RankLossError shrinks to the machine's survivor set, plans + executes
/// (over a DirectExchange) + verifies redistribution, and retries. After
/// `max_shrinks` verdicts the next RankLossError propagates. Other
/// FaultErrors (link faults past the retry budget) always propagate.
RecoveryOutcome run_with_recovery(
    simt::Machine& machine, const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, const tensor::SymTensor3& a,
    const std::vector<double>& x, const RecoveryOptions& opts = {},
    std::optional<BlockAssignment> initial = std::nullopt);

}  // namespace sttsv::elastic
