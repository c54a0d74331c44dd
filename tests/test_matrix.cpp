// 2D predecessor module tests: packed symmetric matrices, pair systems
// (projective planes), triangle partitions, and the communication-optimal
// parallel SYMV — the scheme the paper's tetrahedral partition extends.

#include <gtest/gtest.h>

#include <cmath>

#include "matrix/pair_system.hpp"
#include "matrix/parallel_symv.hpp"
#include "matrix/sym_matrix.hpp"
#include "matrix/triangle_partition.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace sttsv::matrix {
namespace {

TEST(SymMatrix, PackedAccessSymmetric) {
  SymMatrix a(4);
  a.at(3, 1) = 2.0;
  EXPECT_DOUBLE_EQ(a(1, 3), 2.0);
  EXPECT_DOUBLE_EQ(a(3, 1), 2.0);
  EXPECT_EQ(a.packed_size(), 10u);
  EXPECT_THROW(a.at(4, 0), PreconditionError);
}

TEST(Symv, MatchesDenseProduct) {
  Rng rng(1);
  const std::size_t n = 9;
  const auto a = random_symmetric_matrix(n, rng);
  const auto x = rng.uniform_vector(n);
  const auto y = symv(a, x);
  for (std::size_t i = 0; i < n; ++i) {
    double expected = 0.0;
    for (std::size_t j = 0; j < n; ++j) expected += a(i, j) * x[j];
    EXPECT_NEAR(y[i], expected, 1e-12);
  }
}

class ProjectivePlane : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProjectivePlane, IsAPairSystem) {
  const std::uint64_t q = GetParam();
  const auto sys = projective_plane_system(q);
  EXPECT_EQ(sys.num_points(), q * q + q + 1);
  EXPECT_EQ(sys.num_blocks(), q * q + q + 1);  // self-dual: m == P
  EXPECT_EQ(sys.block_size(), q + 1);
  EXPECT_EQ(sys.point_replication(), q + 1);
  sys.verify();
}

INSTANTIATE_TEST_SUITE_P(Qs, ProjectivePlane,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 9));

TEST(ProjectivePlane, FanoPlaneIsQ2) {
  const auto fano = projective_plane_system(2);
  EXPECT_EQ(fano.num_points(), 7u);
  EXPECT_EQ(fano.num_blocks(), 7u);  // the Fano plane
}

TEST(TrivialPairSystem, AllPairs) {
  const auto sys = trivial_pair_system(6);
  EXPECT_EQ(sys.num_blocks(), 15u);
  sys.verify();
}

class TrianglePartitionParam
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrianglePartitionParam, Validates) {
  const std::uint64_t q = GetParam();
  const auto part =
      TrianglePartition::build(projective_plane_system(q), 200);
  part.validate();
  // Projective planes: exactly one diagonal block per processor.
  for (std::size_t p = 0; p < part.num_processors(); ++p) {
    EXPECT_EQ(part.diagonals(p).size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Qs, TrianglePartitionParam,
                         ::testing::Values(2, 3, 4, 5));

TEST(TrianglePartition, TrivialFamilyValidates) {
  const auto part = TrianglePartition::build(trivial_pair_system(6), 30);
  part.validate();
}

class ParallelSymv : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelSymv, MatchesSequential) {
  const std::uint64_t q = GetParam();
  const std::size_t m = q * q + q + 1;
  for (const std::size_t n : {m * (q + 1), m * (q + 1) + 5}) {
    const auto part =
        TrianglePartition::build(projective_plane_system(q), n);
    Rng rng(q + n);
    const auto a = random_symmetric_matrix(n, rng);
    const auto x = rng.uniform_vector(n);
    simt::Machine machine(part.num_processors());
    simt::DirectExchange direct(machine);
    const auto result = parallel_symv(direct, part, a, x,
                                      simt::Transport::kPointToPoint);
    const auto y_ref = symv(a, x);
    ASSERT_EQ(result.y.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(result.y[i], y_ref[i], 1e-10) << "n=" << n << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Qs, ParallelSymv, ::testing::Values(2, 3, 4));

TEST(ParallelSymv, WordsMatchClosedForm) {
  // Divisible case: b multiple of λ₁ = q+1; measured == 2qn/(q²+q+1).
  const std::size_t q = 3;
  const std::size_t m = q * q + q + 1;  // 13
  const std::size_t n = m * (q + 1) * 2;
  const auto part = TrianglePartition::build(projective_plane_system(q), n);
  Rng rng(5);
  const auto a = random_symmetric_matrix(n, rng);
  const auto x = rng.uniform_vector(n);
  simt::Machine machine(part.num_processors());
  simt::DirectExchange direct(machine);
  (void)parallel_symv(direct, part, a, x, simt::Transport::kPointToPoint);
  const double predicted = optimal_symv_words(n, q);
  for (std::size_t p = 0; p < machine.num_ranks(); ++p) {
    EXPECT_DOUBLE_EQ(static_cast<double>(machine.ledger().words_sent(
                         simt::Channel::kGoodput, p)),
                     predicted);
  }
}

TEST(ParallelSymv, NearLowerBound) {
  for (const std::size_t q : {3u, 5u, 8u}) {
    const std::size_t m = q * q + q + 1;
    const std::size_t n = m * (q + 1) * 4;
    const double words = optimal_symv_words(n, q);
    const double bound = symv_lower_bound_words(n, m);
    EXPECT_GT(words, bound * 0.99);
    EXPECT_LT(words / bound, 1.35);  // leading terms agree
  }
}

TEST(TrianglePartition, OwnerLookups) {
  const auto part = TrianglePartition::build(projective_plane_system(2), 70);
  // Off-diagonal blocks land on the unique line of their pair.
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_EQ(part.owner({i, j}), part.system().block_of_pair(i, j));
    }
  }
  EXPECT_THROW(static_cast<void>(part.owner({0, 1})), PreconditionError);  // unsorted
}

}  // namespace
}  // namespace sttsv::matrix
