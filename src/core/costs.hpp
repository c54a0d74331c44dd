#pragma once
// Closed-form cost expressions from the paper, used by benches to print
// "paper prediction" columns next to measured values.

#include <cstddef>
#include <cstdint>

namespace sttsv::core {

/// Theorem 5.2: some processor communicates at least
/// 2 (n(n-1)(n-2)/P)^{1/3} - 2 n/P words.
double lower_bound_words(std::size_t n, std::size_t P);

/// Section 7.2.2: per-processor bandwidth cost of Algorithm 5 with the
/// scheduled point-to-point exchange, counting both vectors:
/// 2 (n (q+1)/(q²+1) - n/P) with P = q(q²+1). Exact when q(q+1) | b.
double optimal_algorithm_words(std::size_t n, std::size_t q);

/// Words the busiest rank sends in Algorithm 5 on a Steiner (m, r, 3)
/// partition, both vectors: the max over ranks of the exchange walk.
/// Each rank requires r row blocks of length b = ⌈n/m⌉, each split over
/// its λ₁ = (m-1)(m-2)/((r-1)(r-2)) requirers. Rank 0 is the first
/// requirer of each of its blocks, so it holds the largest share,
/// s = ⌈b/λ₁⌉, of each: it sends s words of x to each of the other λ₁-1
/// requirers and b - s words of partial y, r·(b + s·(λ₁-2)) in all. When
/// λ₁ | b that is 2·r·b·(λ₁-1)/λ₁; for the spherical family (r = q+1,
/// m = q²+1, λ₁ = q(q+1)) it then equals optimal_algorithm_words when
/// m | n.
double steiner_algorithm_words(std::size_t n, std::size_t m, std::size_t r);

/// Section 7.2.2 (All-to-All variant): 4n/(q+1) · (1 - 1/P),
/// asymptotically twice the lower bound's leading term.
double all_to_all_words(std::size_t n, std::size_t q);

/// Section 7.2.2 / Theorem 7.2.2: point-to-point steps per vector,
/// q³/2 + 3q²/2 - 1 (< P-1).
std::size_t p2p_steps_per_vector(std::size_t q);

/// Number of ternary multiplications of the symmetric Algorithm 4:
/// n²(n+1)/2 (Section 3).
std::uint64_t symmetric_ternary_mults(std::size_t n);

/// Ternary multiplications of the naive Algorithm 3: n³.
std::uint64_t naive_ternary_mults(std::size_t n);

/// Section 7.1: per-processor ternary-mult bound of Algorithm 5,
/// (q+1)q(q-1)/6·3b³ + q·3b²(b-1) + 3b(b-1)(b-2)/6 + 2b(b-1) + b
/// (the last three terms only when the rank holds a central block).
std::uint64_t per_rank_ternary_bound(std::size_t q, std::size_t b);

/// Section 6.1.3: per-processor stored tensor entries,
/// (q+1)q(q-1)/6·b³ + q·b²(b+1)/2 + b(b+1)(b+2)/6 ≈ n³/(6P).
std::uint64_t per_rank_storage_bound(std::size_t q, std::size_t b);

/// Order-d generalization of Theorem 5.2 (paper Section 8: "the lower
/// bound arguments can easily be extended"): with d!|V| <= |∪φ|^d the
/// same minimization gives at least
///   2 (n(n-1)···(n-d+1) / P)^{1/d} - 2n/P
/// words for some processor. d = 3 reduces to lower_bound_words.
double lower_bound_words_d(std::size_t n, std::size_t order, std::size_t P);

/// P = q(q²+1) for the spherical family.
std::size_t spherical_processor_count(std::size_t q);

/// Number of row blocks m = q²+1 for the spherical family.
std::size_t spherical_row_blocks(std::size_t q);

// ---------------------------------------------------------------------------
// Per-level α-β cost model (DESIGN.md §17).
//
// The paper's α-β-γ machine prices every message the same. A two-level
// cluster does not: a node-local hand-off costs shared-memory latency
// and bandwidth, a cross-node message the full fabric price — typically
// an order of magnitude apart on both terms. The hierarchy planner
// scores candidate rank -> node placements with this model; since the
// intra/inter totals come straight from the per-level ledger (or its
// closed-form prediction), minimizing the modeled time at fixed total
// words reduces to minimizing inter-node words, which is exactly what
// hier::compose_assignment does combinatorially.

/// One network level's latency/bandwidth pair: a message costs
/// alpha_s + words * beta_s_per_word seconds.
struct AlphaBeta {
  double alpha_s = 0.0;
  double beta_s_per_word = 0.0;
};

/// Modeled time for `sync_ops` message-startup events moving `words`
/// payload words on one level.
double alpha_beta_time_s(const AlphaBeta& level, std::uint64_t sync_ops,
                         std::uint64_t words);

/// Both levels of the two-level machine, with defaults in the ballpark
/// of a current cluster: intra ~0.2 µs / ~8 ns-per-word (shared-memory
/// hand-off of doubles), inter ~2 µs / ~20 ns-per-word (RDMA fabric).
/// Only the ratios matter for placement decisions.
struct HierCostModel {
  AlphaBeta intra{2e-7, 1.6e-10};
  AlphaBeta inter{2e-6, 2.5e-9};
};

/// Modeled wall time of one communication schedule: intra and inter
/// phases priced by their own α-β line (the two networks run in
/// parallel in reality; summing is the conservative serialization, and
/// monotone in each level's words, which is all the planner needs).
double hier_time_s(const HierCostModel& model, std::uint64_t intra_sync_ops,
                   std::uint64_t intra_words, std::uint64_t inter_sync_ops,
                   std::uint64_t inter_words);

}  // namespace sttsv::core
