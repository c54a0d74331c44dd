#pragma once
// Comparison algorithms for the evaluation harness (DESIGN.md E5):
//
//  * baseline_1d_atomic — the straightforward parallelization of
//    Algorithm 4: lower-tetra entries are split evenly by packed index,
//    x is allgathered, partial y is reduce-scattered. Θ(n) words per rank
//    regardless of P — the communication cost symmetry-oblivious codes pay.
//  * baseline_cubic — a Loomis-Whitney style c×c×c grid partition of the
//    *dense* (nonsymmetric) tensor: communication ~ 3n/P^{1/3} but twice
//    the arithmetic of the symmetric algorithm and a higher constant than
//    Algorithm 5's 2n/P^{1/3}.
//
// Both run over an Exchanger and return the same result structure as
// parallel_sttsv so benches can compare measured words directly.

#include <vector>

#include "core/parallel_sttsv.hpp"
#include "simt/reliable_exchange.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::core {

/// 1D atomic baseline; any rank count >= 1 works. Its exchanges are
/// labelled "allgather" and "reduce-scatter".
ParallelRunResult baseline_1d_atomic(simt::Exchanger& exchanger,
                                     const tensor::SymTensor3& a,
                                     const std::vector<double>& x);

/// Cubic baseline; requires a rank count P == c³ for some c >= 1. Its
/// exchanges are labelled "allgather" and "reduce-scatter".
ParallelRunResult baseline_cubic(simt::Exchanger& exchanger,
                                 const tensor::SymTensor3& a,
                                 const std::vector<double>& x);

/// Predicted per-rank words of the 1D baseline: 2n(1 - 1/P).
double baseline_1d_words(std::size_t n, std::size_t P);

/// Predicted per-rank words of the cubic baseline (leading term 3n/c).
double baseline_cubic_words(std::size_t n, std::size_t c);

/// Largest c with c³ <= P.
std::size_t cube_side_for(std::size_t P);

}  // namespace sttsv::core
