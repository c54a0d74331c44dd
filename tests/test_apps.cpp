// Application tests: HOPM recovers known eigenpairs, CP gradient matches
// finite differences, CP decomposition recovers low-rank tensors, and the
// parallel drivers agree with the sequential ones.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "apps/cp_decompose.hpp"
#include "apps/cp_gradient.hpp"
#include "apps/hopm.hpp"
#include "apps/vec_ops.hpp"
#include "core/sttsv_seq.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/machine.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv::apps {
namespace {

TEST(VecOps, Basics) {
  EXPECT_DOUBLE_EQ(dot({1, 2}, {3, 4}), 11.0);
  EXPECT_DOUBLE_EQ(norm2({3, 4}), 5.0);
  std::vector<double> v{0, 3, 4};
  EXPECT_DOUBLE_EQ(normalize(v), 5.0);
  EXPECT_NEAR(norm2(v), 1.0, 1e-15);
  EXPECT_EQ(axpy({1, 1}, 2.0, {1, 2}), (std::vector<double>{3, 5}));
}

TEST(VecOps, SignInvariantDistance) {
  const std::vector<double> a{1, 0};
  const std::vector<double> b{-1, 0};
  EXPECT_NEAR(sign_invariant_distance(a, b), 0.0, 1e-15);
  EXPECT_NEAR(sign_invariant_distance(a, {0, 1}), std::sqrt(2.0), 1e-12);
}

TEST(VecOps, HadamardSquaredGram) {
  const std::vector<std::vector<double>> cols{{1, 0}, {1, 1}};
  const auto g = hadamard_squared_gram(cols);
  EXPECT_DOUBLE_EQ(g[0][0], 1.0);   // (1)²
  EXPECT_DOUBLE_EQ(g[0][1], 1.0);   // (1)²
  EXPECT_DOUBLE_EQ(g[1][1], 4.0);   // (2)²
}

TEST(Hopm, SuperDiagonalDominantEigenpair) {
  // For the diagonal tensor a_iii = d_i, Z-eigenpairs include (e_i, d_i);
  // HOPM from a generic start converges to a robust eigenpair. Values of
  // λ must satisfy the eigen equation within tolerance.
  const auto a = tensor::super_diagonal({5.0, 1.0, 0.5});
  HopmOptions opts;
  opts.max_iterations = 2000;
  const auto res = hopm(a, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.residual, 1e-8);
}

TEST(Hopm, RankOneTensorRecoversFactor) {
  // A = λ v∘v∘v with unit v: HOPM fixed point is ±v with eigenvalue λ.
  Rng rng(123);
  const std::size_t n = 12;
  std::vector<double> v(n);
  for (auto& x : v) x = rng.next_normal();
  normalize(v);
  const auto a = tensor::low_rank_symmetric(n, {3.0}, {v});
  HopmOptions opts;
  opts.max_iterations = 500;
  const auto res = hopm(a, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.eigenvalue, 3.0, 1e-6);
  EXPECT_LT(sign_invariant_distance(res.eigenvector, v), 1e-6);
}

TEST(Hopm, ShiftedVariantConvergesOnHardTensor) {
  // Random tensors can make plain HOPM oscillate; SS-HOPM with a large
  // enough shift is monotone (Kolda-Mayo). Verify the shifted run meets
  // the eigen-equation residual.
  Rng rng(9);
  const auto a = tensor::random_symmetric(10, rng, -1.0, 1.0);
  HopmOptions opts;
  opts.shift = 8.0;  // > n·max|a| bound for monotonicity
  opts.max_iterations = 5000;
  opts.tolerance = 1e-13;
  const auto res = hopm(a, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.residual, 1e-7);
}

TEST(Hopm, NonFiniteShiftIsRejected) {
  Rng rng(5);
  const std::size_t n = 12;
  const auto a = tensor::random_symmetric(n, rng);
  auto part = partition::TetraPartition::build(steiner::spherical_system(2));
  partition::VectorDistribution dist(part, n);
  simt::Machine machine(part.num_processors());
  simt::DirectExchange direct(machine);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double shift :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    HopmOptions opts;
    opts.shift = shift;
    EXPECT_THROW((void)hopm(a, opts), PreconditionError) << shift;
    EXPECT_THROW((void)hopm_parallel(direct, part, dist, a, opts),
                 PreconditionError)
        << shift;
    EXPECT_THROW((void)hopm_fully_distributed(direct, part, dist, a, opts),
                 PreconditionError)
        << shift;
  }
  EXPECT_EQ(machine.ledger().total_words(), 0u) << "rejected at entry";
}

TEST(Hopm, ParallelMatchesSequential) {
  Rng rng(31);
  const std::size_t n = 60;
  const auto a = tensor::random_low_rank(n, {4.0, 1.0}, rng, nullptr);
  auto part = partition::TetraPartition::build(steiner::spherical_system(2));
  partition::VectorDistribution dist(part, n);
  simt::Machine machine(part.num_processors());
  simt::DirectExchange direct(machine);

  HopmOptions opts;
  opts.shift = 2.0;
  opts.max_iterations = 800;
  const auto seq = hopm(a, opts);
  const auto par = hopm_parallel(direct, part, dist, a, opts);
  // Identical arithmetic (deterministic exchange order) -> identical runs
  // up to floating-point reassociation in the reduction; compare loosely.
  EXPECT_EQ(seq.converged, par.converged);
  EXPECT_NEAR(seq.eigenvalue, par.eigenvalue, 1e-8);
  EXPECT_LT(sign_invariant_distance(seq.eigenvector, par.eigenvector), 1e-6);
}

TEST(CpGradient, MatchesFiniteDifferences) {
  Rng rng(77);
  const std::size_t n = 6;
  const std::size_t r = 2;
  const auto a = tensor::random_symmetric(n, rng, -0.5, 0.5);
  std::vector<std::vector<double>> cols(r);
  for (auto& c : cols) c = rng.uniform_vector(n, -0.5, 0.5);

  const auto grad = cp_gradient(a, cols);
  const double h = 1e-6;
  for (std::size_t l = 0; l < r; ++l) {
    for (std::size_t i = 0; i < n; ++i) {
      auto plus = cols;
      auto minus = cols;
      plus[l][i] += h;
      minus[l][i] -= h;
      const double fd =
          (cp_objective(a, plus) - cp_objective(a, minus)) / (2.0 * h);
      EXPECT_NEAR(grad[l][i], fd, 1e-5)
          << "l=" << l << " i=" << i;
    }
  }
}

TEST(CpGradient, ZeroAtExactDecomposition) {
  // If A = Σ x∘x∘x exactly, the gradient at X is zero.
  Rng rng(13);
  const std::size_t n = 8;
  std::vector<std::vector<double>> cols(2);
  for (auto& c : cols) c = rng.uniform_vector(n, -1.0, 1.0);
  const auto a = tensor::low_rank_symmetric(n, {1.0, 1.0}, cols);
  const auto grad = cp_gradient(a, cols);
  for (const auto& g : grad) {
    for (const double v : g) EXPECT_NEAR(v, 0.0, 1e-10);
  }
  EXPECT_NEAR(cp_objective(a, cols), 0.0, 1e-10);
}

TEST(CpGradient, ParallelMatchesSequential) {
  Rng rng(5);
  const std::size_t n = 30;
  const auto a = tensor::random_symmetric(n, rng, -0.5, 0.5);
  std::vector<std::vector<double>> cols(3);
  for (auto& c : cols) c = rng.uniform_vector(n, -0.5, 0.5);

  auto part = partition::TetraPartition::build(steiner::spherical_system(2));
  partition::VectorDistribution dist(part, n);
  simt::Machine machine(part.num_processors());
  simt::DirectExchange direct(machine);

  const auto g_seq = cp_gradient(a, cols);
  const auto g_par = cp_gradient_parallel(direct, part, dist, a, cols);
  ASSERT_EQ(g_seq.size(), g_par.size());
  for (std::size_t l = 0; l < g_seq.size(); ++l) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(g_seq[l][i], g_par[l][i], 1e-9);
    }
  }
}

TEST(CpDecompose, RecoversLowRankTensor) {
  Rng rng(21);
  const std::size_t n = 10;
  std::vector<std::vector<double>> truth(2);
  for (auto& c : truth) {
    c = rng.uniform_vector(n, -1.0, 1.0);
  }
  const auto a = tensor::low_rank_symmetric(n, {1.0, 1.0}, truth);

  CpOptions opts;
  opts.rank = 2;
  opts.max_iterations = 4000;
  opts.tolerance = 1e-14;
  opts.seed = 3;
  const auto res = cp_decompose(a, opts);
  EXPECT_LT(cp_relative_error(a, res.columns), 0.05);
  // Loss history is monotone nonincreasing by construction.
  for (std::size_t i = 1; i < res.loss_history.size(); ++i) {
    EXPECT_LE(res.loss_history[i], res.loss_history[i - 1] + 1e-12);
  }
}

}  // namespace
}  // namespace sttsv::apps
