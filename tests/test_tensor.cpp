// Packed symmetric tensor tests: index bijection, permutation-invariant
// access, dense round trips, generators.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/dense3.hpp"
#include "tensor/generators.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::tensor {
namespace {

TEST(TetraIndex, CountsMatchFormula) {
  EXPECT_EQ(tetra_count(1), 1u);
  EXPECT_EQ(tetra_count(2), 4u);
  EXPECT_EQ(tetra_count(3), 10u);
  EXPECT_EQ(tetra_count(10), 220u);
  EXPECT_EQ(strict_tetra_count(2), 0u);
  EXPECT_EQ(strict_tetra_count(3), 1u);
  EXPECT_EQ(strict_tetra_count(10), 120u);
}

TEST(TetraIndex, BijectionUpToN) {
  const std::size_t n = 12;
  std::size_t expected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      for (std::size_t k = 0; k <= j; ++k) {
        EXPECT_EQ(tetra_index(i, j, k), expected);
        std::size_t ri = 0, rj = 0, rk = 0;
        tetra_unindex(expected, ri, rj, rk);
        EXPECT_EQ(ri, i);
        EXPECT_EQ(rj, j);
        EXPECT_EQ(rk, k);
        ++expected;
      }
    }
  }
  EXPECT_EQ(expected, tetra_count(n));
}

TEST(SymTensor3, PermutationInvariantAccess) {
  SymTensor3 a(5);
  a.at(4, 2, 1) = 3.5;
  EXPECT_DOUBLE_EQ(a(4, 2, 1), 3.5);
  EXPECT_DOUBLE_EQ(a(4, 1, 2), 3.5);
  EXPECT_DOUBLE_EQ(a(2, 4, 1), 3.5);
  EXPECT_DOUBLE_EQ(a(2, 1, 4), 3.5);
  EXPECT_DOUBLE_EQ(a(1, 4, 2), 3.5);
  EXPECT_DOUBLE_EQ(a(1, 2, 4), 3.5);
  // Writing through a permuted view hits the same cell.
  a.at(1, 2, 4) = -1.0;
  EXPECT_DOUBLE_EQ(a(4, 2, 1), -1.0);
}

TEST(SymTensor3, PackedSizeAndBounds) {
  SymTensor3 a(6);
  EXPECT_EQ(a.packed_size(), tetra_count(6));
  EXPECT_THROW(a.at(6, 0, 0), PreconditionError);
  EXPECT_THROW(static_cast<void>(a.packed(a.packed_size())), PreconditionError);
  // n(n+1)(n+2)/6 wraps to 0 at SIZE_MAX; the constructor must refuse.
  EXPECT_THROW(SymTensor3{SIZE_MAX}, PreconditionError);
}

TEST(Dense3, SymmetryDetection) {
  Dense3 d(3);
  d.at(2, 1, 0) = 1.0;
  EXPECT_FALSE(d.is_symmetric());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      for (std::size_t k = 0; k < 3; ++k) {
        d.at(i, j, k) = static_cast<double>(i + j + k);
      }
    }
  }
  EXPECT_TRUE(d.is_symmetric());
}

TEST(Dense3, RoundTripThroughPacked) {
  Rng rng(21);
  const SymTensor3 a = random_symmetric(7, rng);
  const Dense3 d = to_dense(a);
  EXPECT_TRUE(d.is_symmetric());
  const SymTensor3 b = from_dense(d);
  for (std::size_t idx = 0; idx < a.packed_size(); ++idx) {
    EXPECT_DOUBLE_EQ(a.packed(idx), b.packed(idx));
  }
}

TEST(Dense3, FromDenseRejectsAsymmetric) {
  Dense3 d(2);
  d.at(1, 0, 0) = 1.0;  // a_100 != a_001
  EXPECT_THROW(from_dense(d), PreconditionError);
}

TEST(Generators, SuperDiagonal) {
  const SymTensor3 a = super_diagonal({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(a(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a(2, 2, 2), 3.0);
  EXPECT_DOUBLE_EQ(a(2, 1, 0), 0.0);
  EXPECT_DOUBLE_EQ(a(1, 1, 0), 0.0);
}

TEST(Generators, LowRankMatchesOuterProduct) {
  const std::size_t n = 4;
  const std::vector<double> x{1.0, -2.0, 0.5, 3.0};
  const SymTensor3 a = low_rank_symmetric(n, {2.0}, {x});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_NEAR(a(i, j, k), 2.0 * x[i] * x[j] * x[k], 1e-14);
      }
    }
  }
}

TEST(Generators, RandomLowRankReturnsUnitFactors) {
  Rng rng(5);
  std::vector<std::vector<double>> factors;
  const SymTensor3 a = random_low_rank(6, {1.0, 0.5}, rng, &factors);
  ASSERT_EQ(factors.size(), 2u);
  for (const auto& col : factors) {
    double norm2 = 0.0;
    for (const double v : col) norm2 += v * v;
    EXPECT_NEAR(norm2, 1.0, 1e-12);
  }
  EXPECT_GT(a.frobenius_norm(), 0.0);
}

TEST(FrobeniusNorm, MatchesDenseNorm) {
  Rng rng(33);
  const SymTensor3 a = random_symmetric(6, rng);
  const Dense3 d = to_dense(a);
  double dense_norm2 = 0.0;
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      for (std::size_t k = 0; k < 6; ++k) {
        dense_norm2 += d(i, j, k) * d(i, j, k);
      }
    }
  }
  EXPECT_NEAR(a.frobenius_norm(), std::sqrt(dense_norm2), 1e-10);
}

TEST(Generators, HilbertLikeValues) {
  const SymTensor3 a = hilbert_like(4);
  EXPECT_DOUBLE_EQ(a(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a(3, 2, 1), 1.0 / 7.0);
  EXPECT_DOUBLE_EQ(a(1, 2, 3), 1.0 / 7.0);  // symmetric by construction
}

}  // namespace
}  // namespace sttsv::tensor
