#pragma once
// Communication-optimal parallel symmetric matrix-vector product on the
// triangle block partition — the 2D predecessor result (SYMV flavor of
// Al Daas et al. 2023/2025) that the paper lifts to three dimensions.
// Same three phases as Algorithm 5: gather x shares, owner-compute block
// kernels, reduce partial y shares. Only vector data moves.

#include <vector>

#include "matrix/sym_matrix.hpp"
#include "matrix/triangle_partition.hpp"
#include "simt/reliable_exchange.hpp"

namespace sttsv::matrix {

struct SymvRunResult {
  std::vector<double> y;  // logical length n; words moved are on the ledger
};

/// Runs y = A·x over `exchanger`: one exchange per vector phase,
/// labelled "x-symv" and "y-symv".
SymvRunResult parallel_symv(simt::Exchanger& exchanger,
                            const TrianglePartition& part,
                            const SymMatrix& a,
                            const std::vector<double>& x,
                            simt::Transport transport);

/// Per-processor words of the optimal 2D algorithm on PG(2, q):
/// 2·q·n/(q²+q+1) ≈ 2n/√P for both vector phases (divisible case exact).
double optimal_symv_words(std::size_t n, std::size_t q);

/// The 2D symmetric lower bound: 2√(n(n−1)/P) − 2n/P (from 2|V| ≤ |∪φ|²).
double symv_lower_bound_words(std::size_t n, std::size_t P);

}  // namespace sttsv::matrix
