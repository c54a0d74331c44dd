#include "apps/cp_gradient.hpp"

#include <functional>

#include "apps/vec_ops.hpp"
#include "batch/batched_run.hpp"
#include "core/parallel_sttsv.hpp"
#include "core/sttsv_seq.hpp"
#include "support/check.hpp"

namespace sttsv::apps {

namespace {

using SttsvFn =
    std::function<std::vector<double>(const std::vector<double>&)>;

void check_columns(const tensor::SymTensor3& a,
                   const std::vector<std::vector<double>>& columns) {
  STTSV_REQUIRE(!columns.empty(), "need at least one factor column");
  for (const auto& col : columns) {
    STTSV_REQUIRE(col.size() == a.dim(), "factor column length mismatch");
  }
}

/// Algorithm 2 lines 3 and 7 given the STTSV results of line 5:
/// G = (XᵀX) ∗ (XᵀX), then Y = X·G - Ỹ.
std::vector<std::vector<double>> gradient_from_ytilde(
    std::size_t n, const std::vector<std::vector<double>>& columns,
    const std::vector<std::vector<double>>& y_tilde) {
  const std::size_t r = columns.size();
  const auto g = hadamard_squared_gram(columns);
  std::vector<std::vector<double>> grad(r, std::vector<double>(n, 0.0));
  for (std::size_t l = 0; l < r; ++l) {
    for (std::size_t lp = 0; lp < r; ++lp) {
      const double w = g[lp][l];
      for (std::size_t i = 0; i < n; ++i) {
        grad[l][i] += columns[lp][i] * w;
      }
    }
    for (std::size_t i = 0; i < n; ++i) grad[l][i] -= y_tilde[l][i];
  }
  return grad;
}

/// Ỹ[:,ℓ] = A ×₂ x_ℓ ×₃ x_ℓ — the r STTSV calls (Algorithm 2 line 5).
std::vector<std::vector<double>> gradient_impl(
    const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& columns, const SttsvFn& sttsv) {
  check_columns(a, columns);
  std::vector<std::vector<double>> y_tilde(columns.size());
  for (std::size_t l = 0; l < columns.size(); ++l) {
    y_tilde[l] = sttsv(columns[l]);
  }
  return gradient_from_ytilde(a.dim(), columns, y_tilde);
}

}  // namespace

std::vector<std::vector<double>> cp_gradient(
    const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& columns) {
  return gradient_impl(a, columns, [&a](const std::vector<double>& x) {
    return core::sttsv_packed(a, x);
  });
}

std::vector<std::vector<double>> cp_gradient_parallel(
    simt::Exchanger& exchanger, const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& columns,
    simt::Transport transport) {
  return gradient_impl(a, columns, [&](const std::vector<double>& x) {
    return core::parallel_sttsv(exchanger, part, dist, a, x, transport).y;
  });
}

std::vector<std::vector<double>> cp_gradient_batched(
    simt::Exchanger& exchanger, const batch::Plan& plan,
    const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& columns) {
  check_columns(a, columns);
  batch::BatchRunResult run =
      batch::parallel_sttsv_batch(exchanger, plan, a, columns);
  return gradient_from_ytilde(a.dim(), columns, run.y);
}

double cp_objective(const tensor::SymTensor3& a,
                    const std::vector<std::vector<double>>& columns) {
  const double norm_a = a.frobenius_norm();
  double cross = 0.0;
  for (const auto& col : columns) {
    cross += core::full_contraction(a, col);
  }
  double model = 0.0;
  for (const auto& ca : columns) {
    for (const auto& cb : columns) {
      const double inner = dot(ca, cb);
      model += inner * inner * inner;
    }
  }
  return (norm_a * norm_a - 2.0 * cross + model) / 6.0;
}

}  // namespace sttsv::apps
