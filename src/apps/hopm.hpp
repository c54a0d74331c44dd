#pragma once
// Higher-Order Power Method (paper Algorithm 1) for Z-eigenpairs of a
// symmetric 3-tensor: iterate y = A ×₂ x ×₃ x (+ optional shift α·x for
// the SS-HOPM variant, which guarantees monotone convergence for α large
// enough), x = y/||y||, until the iterate stabilizes; then
// λ = A ×₁ x ×₂ x ×₃ x.
//
// STTSV is the bottleneck of every iteration — exactly the paper's
// motivation — so both a sequential and a simulated-parallel driver are
// provided; the parallel driver's per-iteration communication equals one
// STTSV exchange.

#include <cstdint>
#include <vector>

#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/reliable_exchange.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::apps {

struct HopmOptions {
  std::size_t max_iterations = 500;
  double tolerance = 1e-12;  // sign-invariant iterate distance
  double shift = 0.0;        // SS-HOPM shift α (0 = plain HOPM), finite
  std::uint64_t seed = 42;   // random unit start vector
};

struct HopmResult {
  std::vector<double> eigenvector;
  double eigenvalue = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
  /// ||A ×₂x ×₃x − λx||, the Z-eigenpair residual at the final iterate.
  double residual = 0.0;
};

HopmResult hopm(const tensor::SymTensor3& a, const HopmOptions& opts = {});

/// Same iteration with each STTSV executed by Algorithm 5 over
/// `exchanger`.
HopmResult hopm_parallel(simt::Exchanger& exchanger,
                         const partition::TetraPartition& part,
                         const partition::VectorDistribution& dist,
                         const tensor::SymTensor3& a,
                         const HopmOptions& opts = {},
                         simt::Transport transport =
                             simt::Transport::kPointToPoint);

/// Fully distributed HOPM: the iterate never leaves its per-rank shares.
/// Each iteration costs one STTSV exchange plus O(log P) words of scalar
/// allreduces (norm + convergence test) — the message pattern a real MPI
/// implementation of Algorithm 1 would have.
HopmResult hopm_fully_distributed(simt::Exchanger& exchanger,
                                  const partition::TetraPartition& part,
                                  const partition::VectorDistribution& dist,
                                  const tensor::SymTensor3& a,
                                  const HopmOptions& opts = {},
                                  simt::Transport transport =
                                      simt::Transport::kPointToPoint);

}  // namespace sttsv::apps
