// Baseline algorithm tests: both baselines compute the right answer, and
// their measured communication matches their predicted cost shapes.

#include <gtest/gtest.h>

#include <cmath>

#include "core/baselines.hpp"
#include "core/costs.hpp"
#include "core/sttsv_seq.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv::core {
namespace {

void expect_equal(const std::vector<double>& got,
                  const std::vector<double>& want, double tol = 1e-10) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol) << "i=" << i;
  }
}

class Baseline1d : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Baseline1d, MatchesReference) {
  const std::size_t P = GetParam();
  Rng rng(P);
  const std::size_t n = 31;
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  simt::Machine machine(P);
  simt::DirectExchange direct(machine);
  const auto result = baseline_1d_atomic(direct, a, x);
  expect_equal(result.y, sttsv_packed(a, x));
}

INSTANTIATE_TEST_SUITE_P(Ps, Baseline1d, ::testing::Values(1, 2, 3, 7, 16));

TEST(Baseline1d, CommunicationIsThetaN) {
  const std::size_t n = 64;
  const std::size_t P = 8;
  Rng rng(2);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  simt::Machine machine(P);
  simt::DirectExchange direct(machine);
  (void)baseline_1d_atomic(direct, a, x);
  // Divisible case: each rank sends exactly 2 * (n - n/P) words.
  const auto expected = static_cast<std::uint64_t>(2 * (n - n / P));
  for (std::size_t p = 0; p < P; ++p) {
    EXPECT_EQ(machine.ledger().words_sent(simt::Channel::kGoodput, p),
              expected);
  }
  EXPECT_NEAR(static_cast<double>(machine.ledger().max_words_sent()),
              baseline_1d_words(n, P), 1e-9);
}

TEST(Baseline1d, WorkIsBalanced) {
  const std::size_t n = 40;
  const std::size_t P = 5;
  Rng rng(3);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  simt::Machine machine(P);
  simt::DirectExchange direct(machine);
  const auto result = baseline_1d_atomic(direct, a, x);
  std::uint64_t lo = UINT64_MAX, hi = 0, total = 0;
  for (const auto t : result.ternary_mults) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
    total += t;
  }
  EXPECT_EQ(total, symmetric_ternary_mults(n));
  // Packed-range splitting balances entries; ternary mults differ by at
  // most a factor ~3/1 per entry — keep a generous sanity band.
  EXPECT_LE(hi, 3 * lo + 16);
}

TEST(CubeSide, Values) {
  EXPECT_EQ(cube_side_for(1), 1u);
  EXPECT_EQ(cube_side_for(7), 1u);
  EXPECT_EQ(cube_side_for(8), 2u);
  EXPECT_EQ(cube_side_for(26), 2u);
  EXPECT_EQ(cube_side_for(27), 3u);
  EXPECT_EQ(cube_side_for(1000), 10u);
}

class BaselineCubic : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BaselineCubic, MatchesReference) {
  const std::size_t c = GetParam();
  Rng rng(c * 7);
  for (const std::size_t n : {7u, 12u, 25u}) {
    const auto a = tensor::random_symmetric(n, rng);
    const auto x = rng.uniform_vector(n);
    simt::Machine machine(c * c * c);
    simt::DirectExchange direct(machine);
    const auto result = baseline_cubic(direct, a, x);
    expect_equal(result.y, sttsv_packed(a, x), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Cs, BaselineCubic, ::testing::Values(1, 2, 3));

TEST(BaselineCubic, DoesDoubleTheArithmetic) {
  const std::size_t n = 24;
  Rng rng(5);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  simt::Machine machine(8);
  simt::DirectExchange direct(machine);
  const auto result = baseline_cubic(direct, a, x);
  std::uint64_t total = 0;
  for (const auto t : result.ternary_mults) total += t;
  // Dense: exactly n³ ternary mults (≈ 2× the symmetric algorithm).
  EXPECT_EQ(total, naive_ternary_mults(n));
}

TEST(BaselineCubic, CommunicationNearPrediction) {
  const std::size_t c = 3;
  const std::size_t n = 27 * 6;  // divisible by c
  Rng rng(6);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  simt::Machine machine(c * c * c);
  simt::DirectExchange direct(machine);
  (void)baseline_cubic(direct, a, x);
  const double predicted = baseline_cubic_words(n, c);
  const double measured =
      static_cast<double>(machine.ledger().max_words_sent());
  EXPECT_NEAR(measured / predicted, 1.0, 0.15);
}

TEST(BaselineCubic, RejectsNonCubeP) {
  tensor::SymTensor3 a(4);
  simt::Machine machine(10);
  simt::DirectExchange direct(machine);
  EXPECT_THROW(baseline_cubic(direct, a, std::vector<double>(4, 1.0)),
               PreconditionError);
}

}  // namespace
}  // namespace sttsv::core
