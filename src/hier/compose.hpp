#pragma once
// The two-level composed partition (DESIGN.md §17).
//
// The Steiner tetrahedral partition fixes *what* each rank owns and *who*
// talks to whom: rank p exchanges, per STTSV, exactly
//
//   words(p <-> q) = 2 · Σ_{i ∈ R_p ∩ R_q} (|share(i,p)| + |share(i,q)|)
//
// (x-shares out and back plus y-partials out and back; the Steiner
// property caps |R_p ∩ R_q| at 2). The total is a partition invariant —
// no placement changes it — but the *inter-node* slice of it depends
// entirely on which ranks share a node. Composing the partition with a
// topology therefore means choosing the rank -> node assignment that
// pushes as much pair traffic as possible inside nodes, where the
// shared-segment path moves it for one fence per node instead of α per
// message.
//
// compose_assignment() keeps the identity map between Steiner blocks and
// ranks (so the partition, the distribution, the drivers and the output
// y are bitwise untouched) and optimizes only the placement: a greedy
// affinity seed packs each node with mutually-heavy pairs, then
// Kernighan–Lin-style pairwise swaps refine until no single swap helps.
// The flat contiguous map is always refined as a candidate too and the
// best candidate wins, so the composed inter-node word count is <= the
// flat one by construction; the hierarchy bench checks it is strictly
// smaller at every swept configuration.
//
// predict_level_words() evaluates the same closed form the optimizer
// minimizes, giving the exact per-level word counts a run must produce —
// bench_hierarchy asserts measured == predicted to the word.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hier/topology.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"

namespace sttsv::hier {

/// Closed-form per-level word counts for one STTSV under an assignment.
struct LevelWords {
  std::uint64_t intra = 0;
  std::uint64_t inter = 0;
  [[nodiscard]] std::uint64_t total() const { return intra + inter; }
};

/// Words both directions of the (p, q) pair move per STTSV (x-shares +
/// y-partials, Section 7.2.2); 0 when R_p ∩ R_q is empty.
[[nodiscard]] std::uint64_t pair_traffic_words(
    const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, std::size_t p, std::size_t q);

/// The full symmetric pair-traffic matrix W[p][q] (W[p][p] = 0).
[[nodiscard]] std::vector<std::vector<std::uint64_t>> pair_traffic_matrix(
    const partition::TetraPartition& part,
    const partition::VectorDistribution& dist);

/// Splits one STTSV's total goodput words by level under `node_of`.
/// Multiply by the batch width B for batched runs — every vector of a
/// batch repeats the identical exchange pattern.
[[nodiscard]] LevelWords predict_level_words(
    const partition::TetraPartition& part,
    const partition::VectorDistribution& dist,
    const std::vector<std::uint32_t>& node_of);

/// A rank -> node placement plus the inter-node words it costs per STTSV.
struct NodeAssignment {
  std::vector<std::uint32_t> node_of;
  std::uint64_t inter_words = 0;  ///< per STTSV, both directions
};

/// The contiguous baseline: Topology::uniform's map, evaluated.
[[nodiscard]] NodeAssignment flat_assignment(
    const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, std::size_t num_nodes);

/// The composed placement: same node sizes as flat_assignment (balanced,
/// first P mod N nodes one larger), inter-node words minimized by greedy
/// seeding + pairwise-swap refinement. Guaranteed
/// inter_words <= flat_assignment(...).inter_words.
[[nodiscard]] NodeAssignment compose_assignment(
    const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, std::size_t num_nodes);

}  // namespace sttsv::hier
