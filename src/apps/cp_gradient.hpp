#pragma once
// Symmetric CP gradient (paper Algorithm 2): given factor columns
// x_1..x_r, the gradient of f(X) = 1/6 ||A - Σ_ℓ x_ℓ∘x_ℓ∘x_ℓ||² is
//   Y = X·G - Ỹ,   G = (XᵀX) ∗ (XᵀX),   Ỹ[:,ℓ] = A ×₂ x_ℓ ×₃ x_ℓ.
// The r STTSV calls dominate; the parallel variant runs each via
// Algorithm 5.

#include <vector>

#include "batch/plan.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/reliable_exchange.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::apps {

/// Gradient columns Y (same shape as the factor columns X).
std::vector<std::vector<double>> cp_gradient(
    const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& columns);

std::vector<std::vector<double>> cp_gradient_parallel(
    simt::Exchanger& exchanger, const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& columns,
    simt::Transport transport = simt::Transport::kPointToPoint);

/// The r STTSV calls of Algorithm 2 as ONE batched Algorithm-5 pass:
/// all r column exchanges aggregate into a single message per rank pair
/// per phase (words unchanged, messages ~r× fewer). Gradient values are
/// bitwise identical to cp_gradient_parallel with the plan's transport.
std::vector<std::vector<double>> cp_gradient_batched(
    simt::Exchanger& exchanger, const batch::Plan& plan,
    const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& columns);

/// The CP objective f(X) = 1/6 ||A - Σ_ℓ x_ℓ∘x_ℓ∘x_ℓ||², evaluated without
/// materializing the rank-r tensor:
/// ||A||² - 2 Σ_ℓ A×₁x_ℓ×₂x_ℓ×₃x_ℓ + Σ_{ℓ,ℓ'} (x_ℓᵀx_ℓ')³, all /6.
double cp_objective(const tensor::SymTensor3& a,
                    const std::vector<std::vector<double>>& columns);

}  // namespace sttsv::apps
