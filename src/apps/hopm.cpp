#include "apps/hopm.hpp"

#include <cmath>
#include <functional>

#include "apps/vec_ops.hpp"
#include "core/distributed_vector.hpp"
#include "core/parallel_sttsv.hpp"
#include "core/sttsv_seq.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace sttsv::apps {

namespace {

using SttsvFn =
    std::function<std::vector<double>(const std::vector<double>&)>;

HopmResult hopm_loop(const tensor::SymTensor3& a, const HopmOptions& opts,
                     const SttsvFn& sttsv) {
  STTSV_REQUIRE(std::isfinite(opts.shift), "HOPM shift must be finite");
  const std::size_t n = a.dim();
  Rng rng(opts.seed);
  std::vector<double> x = rng.uniform_vector(n, -1.0, 1.0);
  normalize(x);

  HopmResult result;
  for (std::size_t it = 1; it <= opts.max_iterations; ++it) {
    std::vector<double> y = sttsv(x);
    if (opts.shift != 0.0) y = axpy(y, opts.shift, x);
    normalize(y);
    const double delta = sign_invariant_distance(x, y);
    x = std::move(y);
    result.iterations = it;
    if (delta < opts.tolerance) {
      result.converged = true;
      break;
    }
  }

  // λ = A ×₁x ×₂x ×₃x = xᵀ(A ×₂x ×₃x); residual of the Z-eigen equation.
  std::vector<double> ax = sttsv(x);
  result.eigenvalue = dot(x, ax);
  double res2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = ax[i] - result.eigenvalue * x[i];
    res2 += r * r;
  }
  result.residual = std::sqrt(res2);
  result.eigenvector = std::move(x);
  return result;
}

}  // namespace

HopmResult hopm(const tensor::SymTensor3& a, const HopmOptions& opts) {
  return hopm_loop(a, opts, [&a](const std::vector<double>& x) {
    return core::sttsv_packed(a, x);
  });
}

HopmResult hopm_parallel(simt::Exchanger& exchanger,
                         const partition::TetraPartition& part,
                         const partition::VectorDistribution& dist,
                         const tensor::SymTensor3& a,
                         const HopmOptions& opts,
                         simt::Transport transport) {
  STTSV_REQUIRE(dist.logical_n() == a.dim(),
                "distribution/tensor dimension mismatch");
  return hopm_loop(a, opts, [&](const std::vector<double>& x) {
    return core::parallel_sttsv(exchanger, part, dist, a, x, transport).y;
  });
}

HopmResult hopm_fully_distributed(simt::Exchanger& exchanger,
                                  const partition::TetraPartition& part,
                                  const partition::VectorDistribution& dist,
                                  const tensor::SymTensor3& a,
                                  const HopmOptions& opts,
                                  simt::Transport transport) {
  using core::DistributedVector;
  STTSV_REQUIRE(dist.logical_n() == a.dim(),
                "distribution/tensor dimension mismatch");
  STTSV_REQUIRE(std::isfinite(opts.shift), "HOPM shift must be finite");
  const std::size_t n = a.dim();
  Rng rng(opts.seed);

  // Initial iterate: the same start vector as the other drivers,
  // scattered into shares and normalized with a counted allreduce.
  std::vector<double> x0 = rng.uniform_vector(n, -1.0, 1.0);
  DistributedVector x = DistributedVector::scatter(dist, x0);
  {
    const double norm2_x = DistributedVector::dot(exchanger, x, x);
    x.scale(1.0 / std::sqrt(norm2_x));
  }

  HopmResult result;
  for (std::size_t it = 1; it <= opts.max_iterations; ++it) {
    DistributedVector y =
        core::parallel_sttsv_dist(exchanger, part, a, x, transport);
    if (opts.shift != 0.0) y.axpy(opts.shift, x);
    const double norm2_y = DistributedVector::dot(exchanger, y, y);
    STTSV_CHECK(norm2_y > 0.0, "HOPM iterate collapsed to zero");
    y.scale(1.0 / std::sqrt(norm2_y));
    const auto [dm, dp] = DistributedVector::diff_norms2(exchanger, x, y);
    const double delta = std::sqrt(std::min(dm, dp));
    x = std::move(y);
    result.iterations = it;
    if (delta < opts.tolerance) {
      result.converged = true;
      break;
    }
  }

  // λ = xᵀ(A ×₂x ×₃x), residual ||Ax² − λx|| — all in shares.
  DistributedVector ax =
      core::parallel_sttsv_dist(exchanger, part, a, x, transport);
  result.eigenvalue = DistributedVector::dot(exchanger, x, ax);
  DistributedVector r = ax;
  r.axpy(-result.eigenvalue, x);
  result.residual = std::sqrt(DistributedVector::dot(exchanger, r, r));
  result.eigenvector = x.gather();
  return result;
}

}  // namespace sttsv::apps
