// Parallel Algorithm 5 tests: correctness against the dense reference for
// both Steiner families, both transports, divisible and padded sizes; and
// the communication properties the paper proves (no tensor communicated,
// per-rank words match the closed form, step counts, load balance).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/costs.hpp"
#include "core/parallel_sttsv.hpp"
#include "core/sttsv_seq.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv::core {
namespace {

using simt::Channel;

// The distribution references the partition, so the partition lives in a
// unique_ptr: moving the fixture must not relocate it.
struct Fixture {
  std::unique_ptr<partition::TetraPartition> part_ptr;
  std::unique_ptr<partition::VectorDistribution> dist_ptr;
  tensor::SymTensor3 a;
  std::vector<double> x;
  std::vector<double> y_ref;

  [[nodiscard]] const partition::TetraPartition& part() const {
    return *part_ptr;
  }
  [[nodiscard]] const partition::VectorDistribution& dist() const {
    return *dist_ptr;
  }
};

Fixture make_setup(steiner::SteinerSystem sys, std::size_t n,
                   std::uint64_t seed) {
  auto part = std::make_unique<partition::TetraPartition>(
      partition::TetraPartition::build(std::move(sys)));
  auto dist = std::make_unique<partition::VectorDistribution>(*part, n);
  Rng rng(seed);
  auto a = tensor::random_symmetric(n, rng);
  auto x = rng.uniform_vector(n);
  auto y_ref = sttsv_packed(a, x);
  return Fixture{std::move(part), std::move(dist), std::move(a),
                 std::move(x), std::move(y_ref)};
}

void expect_equal(const std::vector<double>& got,
                  const std::vector<double>& want, double tol = 1e-10) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol) << "i=" << i;
  }
}

TEST(ParallelSttsv, SphericalQ2DivisibleExact) {
  // q=2: m=5, P=10, |Q_i|=6; n = 5*12 is fully divisible.
  Fixture s = make_setup(steiner::spherical_system(2), 60, 1);
  simt::Machine machine(s.part().num_processors());
  const auto result = parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                                     simt::Transport::kPointToPoint);
  expect_equal(result.y, s.y_ref);

  // Exact divisible case: every rank sends exactly the paper's
  // 2(n(q+1)/(q²+1) - n/P) words across the two vector phases.
  const double predicted = optimal_algorithm_words(60, 2);
  for (std::size_t p = 0; p < machine.num_ranks(); ++p) {
    EXPECT_DOUBLE_EQ(
        static_cast<double>(machine.ledger().words_sent(Channel::kGoodput, p)),
        predicted)
        << "p=" << p;
    EXPECT_DOUBLE_EQ(static_cast<double>(
                         machine.ledger().words_received(Channel::kGoodput, p)),
                     predicted);
  }
}

TEST(ParallelSttsv, SphericalQ3Divisible) {
  // q=3: m=10, P=30, |Q_i|=12; n = 10*12.
  Fixture s = make_setup(steiner::spherical_system(3), 120, 2);
  simt::Machine machine(30);
  const auto result = parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                                     simt::Transport::kPointToPoint);
  expect_equal(result.y, s.y_ref);
  const double predicted = optimal_algorithm_words(120, 3);
  EXPECT_DOUBLE_EQ(static_cast<double>(machine.ledger().max_words_sent()),
                   predicted);
}

TEST(ParallelSttsv, PaddedVectorLengths) {
  // Non-divisible n exercises padding and uneven shares.
  for (const std::size_t n : {17u, 23u, 61u, 97u}) {
    Fixture s = make_setup(steiner::spherical_system(2), n, 100 + n);
    simt::Machine machine(10);
    const auto result = parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                                       simt::Transport::kPointToPoint);
    expect_equal(result.y, s.y_ref);
  }
}

TEST(ParallelSttsv, BooleanFamilyTable3System) {
  // The S(8,4,3) partition of Table 3 (P = 14).
  Fixture s = make_setup(steiner::boolean_quadruple_system(3), 56, 3);
  simt::Machine machine(14);
  const auto result = parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                                     simt::Transport::kPointToPoint);
  expect_equal(result.y, s.y_ref);
}

TEST(ParallelSttsv, AllToAllTransportSameAnswer) {
  Fixture s = make_setup(steiner::spherical_system(2), 60, 4);
  simt::Machine machine(10);
  const auto result = parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                                     simt::Transport::kAllToAll);
  expect_equal(result.y, s.y_ref);
  // All-to-All charges P-1 rounds per phase: 2 phases = 2(P-1).
  EXPECT_EQ(machine.ledger().rounds(), 2u * (10 - 1));
  EXPECT_GT(machine.ledger().modeled_collective_words(), 0u);
}

TEST(ParallelSttsv, PointToPointStepsMatchTheorem722) {
  // Divisible case: rounds per vector = q³/2 + 3q²/2 - 1 (König schedule
  // lower bound Δ equals the partner count).
  for (const std::size_t q : {2u, 3u}) {
    const std::size_t m = q * q + 1;
    const std::size_t b = q * (q + 1);
    Fixture s = make_setup(steiner::spherical_system(q), m * b, 5 + q);
    simt::Machine machine(s.part().num_processors());
    (void)parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                         simt::Transport::kPointToPoint);
    EXPECT_EQ(machine.ledger().rounds(), 2 * p2p_steps_per_vector(q));
  }
}

TEST(ParallelSttsv, LoadBalanceSection71) {
  const std::size_t q = 3;
  const std::size_t b = 12;
  const std::size_t n = b * (q * q + 1);
  Fixture s = make_setup(steiner::spherical_system(q), n, 6);
  simt::Machine machine(s.part().num_processors());
  const auto result = parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                                     simt::Transport::kPointToPoint);
  // Total ternary mults = Algorithm 4's count; max per rank bounded by
  // the Section 7.1 closed form.
  std::uint64_t total = 0;
  for (const auto t : result.ternary_mults) {
    total += t;
    EXPECT_LE(t, per_rank_ternary_bound(q, b));
  }
  EXPECT_EQ(total, symmetric_ternary_mults(n));
}

TEST(ParallelSttsv, MessagesCarryAtMostTwoRowBlockShares) {
  // Each pair exchanges at most 2 shares per vector (Steiner blocks meet
  // in at most 2 points): per-pair words <= 2 * max share length per phase.
  Fixture s = make_setup(steiner::spherical_system(3), 240, 7);
  simt::Machine machine(30);
  (void)parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                       simt::Transport::kPointToPoint);
  const std::size_t share = 240 / 30;  // b / (q(q+1)) = 24/12 = 2... n/P = 8
  for (std::size_t p = 0; p < 30; ++p) {
    for (std::size_t peer = 0; peer < 30; ++peer) {
      if (p == peer) continue;
      EXPECT_LE(machine.ledger().pair_words(p, peer), 2 * 2 * (share / 4))
          << p << "->" << peer;
    }
  }
}

TEST(ParallelSttsv, LowRankTensorSanity) {
  // Structured (low-rank) input as an independent correctness probe.
  Rng rng(8);
  const std::size_t n = 60;
  const auto a = tensor::random_low_rank(n, {3.0, 1.0, 0.25}, rng, nullptr);
  const auto x = rng.uniform_vector(n);
  auto part = partition::TetraPartition::build(steiner::spherical_system(2));
  partition::VectorDistribution dist(part, n);
  simt::Machine machine(10);
  const auto result = parallel_sttsv(machine, part, dist, a, x,
                                     simt::Transport::kPointToPoint);
  expect_equal(result.y, sttsv_packed(a, x), 1e-9);
}

TEST(ParallelSttsv, RequiresMatchingRankCount) {
  Fixture s = make_setup(steiner::spherical_system(2), 20, 9);
  simt::Machine machine(7);  // wrong P
  EXPECT_THROW(parallel_sttsv(machine, s.part(), s.dist(), s.a, s.x,
                              simt::Transport::kPointToPoint),
               PreconditionError);
}

}  // namespace
}  // namespace sttsv::core
