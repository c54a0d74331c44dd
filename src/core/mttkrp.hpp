#pragma once
// Symmetric mode-1 MTTKRP (paper Section 8): for a factor matrix X with
// columns x_1..x_r,
//   Y[i][ℓ] = Σ_{j,k} a_ijk · X[j][ℓ] · X[k][ℓ],
// i.e. one STTSV per column. This is the bottleneck of CP decomposition;
// the paper plans to generalize its bounds to it. We provide:
//
//  * symmetric_mttkrp          — sequential, one packed pass per column;
//  * parallel_symmetric_mttkrp — batched Algorithm 5: the r columns run
//    as r lanes of core::parallel_sttsv_panel (arXiv 1708.07401), so
//    their shares travel in ONE pair of exchanges (r× the words of a
//    single STTSV but the same message/step count — an r-fold latency
//    saving over r separate STTSV runs), and column ℓ is bitwise
//    identical to parallel_sttsv on x_ℓ.

#include <vector>

#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/reliable_exchange.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::core {

/// Y as columns: result[ℓ][i] = (A ×₂ x_ℓ ×₃ x_ℓ)_i.
std::vector<std::vector<double>> symmetric_mttkrp(
    const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& columns);

/// Batched parallel MTTKRP over `exchanger`. Requirements mirror
/// parallel_sttsv (every rank alive); there must be at least one column,
/// each of length dist.logical_n().
std::vector<std::vector<double>> parallel_symmetric_mttkrp(
    simt::Exchanger& exchanger, const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& columns,
    simt::Transport transport);

}  // namespace sttsv::core
