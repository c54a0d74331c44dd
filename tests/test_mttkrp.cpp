// Symmetric MTTKRP tests (paper Section 8): column-wise agreement with
// STTSV, batched parallel correctness, and the batching property —
// r columns move in the SAME number of messages as one.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "algorithm5_reference.hpp"
#include "core/costs.hpp"
#include "core/mttkrp.hpp"
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

TEST(SymmetricMttkrp, ColumnsMatchSttsv) {
  Rng rng(1);
  const std::size_t n = 12;
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<std::vector<double>> cols(4);
  for (auto& c : cols) c = rng.uniform_vector(n);
  const auto y = symmetric_mttkrp(a, cols);
  ASSERT_EQ(y.size(), 4u);
  for (std::size_t l = 0; l < 4; ++l) {
    const auto ref = sttsv_packed(a, cols[l]);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y[l][i], ref[i], 1e-11);
    }
  }
}

class ParallelMttkrp : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelMttkrp, MatchesSequential) {
  const std::size_t r = GetParam();
  Rng rng(50 + r);
  const std::size_t n = 60;
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<std::vector<double>> cols(r);
  for (auto& c : cols) c = rng.uniform_vector(n);

  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(2));
  const partition::VectorDistribution dist(part, n);
  simt::Machine machine(part.num_processors());
  simt::DirectExchange direct(machine);
  const auto y_par = parallel_symmetric_mttkrp(
      direct, part, dist, a, cols, simt::Transport::kPointToPoint);
  const auto y_seq = symmetric_mttkrp(a, cols);
  ASSERT_EQ(y_par.size(), r);
  for (std::size_t l = 0; l < r; ++l) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y_par[l][i], y_seq[l][i], 1e-9)
          << "l=" << l << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParallelMttkrp, ::testing::Values(1, 2, 5));

TEST(ParallelMttkrp, BatchingSavesMessagesNotWords) {
  // One batched run of r columns: r× the words of one STTSV, but the
  // SAME message count — the latency advantage of batching.
  Rng rng(7);
  const std::size_t n = 60;
  const std::size_t r = 4;
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<std::vector<double>> cols(r);
  for (auto& c : cols) c = rng.uniform_vector(n);

  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(2));
  const partition::VectorDistribution dist(part, n);

  simt::Machine single(part.num_processors());
  (void)parallel_sttsv(single, part, dist, a, cols[0],
                       simt::Transport::kPointToPoint);
  simt::Machine batched(part.num_processors());
  simt::DirectExchange batched_direct(batched);
  (void)parallel_symmetric_mttkrp(batched_direct, part, dist, a, cols,
                                  simt::Transport::kPointToPoint);

  EXPECT_EQ(batched.ledger().total_messages(),
            single.ledger().total_messages());
  EXPECT_EQ(batched.ledger().total_words(),
            r * single.ledger().total_words());
  EXPECT_EQ(batched.ledger().rounds(), single.ledger().rounds());
}

TEST(ParallelMttkrp, PaddedSizes) {
  Rng rng(11);
  const std::size_t n = 37;  // not divisible by m = 5
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<std::vector<double>> cols(3);
  for (auto& c : cols) c = rng.uniform_vector(n);
  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(2));
  const partition::VectorDistribution dist(part, n);
  simt::Machine machine(part.num_processors());
  simt::DirectExchange direct(machine);
  const auto y_par = parallel_symmetric_mttkrp(
      direct, part, dist, a, cols, simt::Transport::kPointToPoint);
  const auto y_seq = symmetric_mttkrp(a, cols);
  for (std::size_t l = 0; l < 3; ++l) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y_par[l][i], y_seq[l][i], 1e-9);
    }
  }
}

TEST(ParallelMttkrp, ColumnsMatchReferenceBitwise) {
  // The r columns run as r lanes of the one driver: each column is bit
  // for bit the message-free reference, and the single-vector run.
  Rng rng(13);
  const std::size_t n = 53;
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<std::vector<double>> cols(5);
  for (auto& c : cols) c = rng.uniform_vector(n);
  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(2));
  const partition::VectorDistribution dist(part, n);
  simt::Machine machine(part.num_processors());
  simt::DirectExchange direct(machine);
  const auto y_par = parallel_symmetric_mttkrp(
      direct, part, dist, a, cols, simt::Transport::kPointToPoint);
  ASSERT_EQ(y_par.size(), cols.size());
  const auto same_bits = [](const std::vector<double>& u,
                            const std::vector<double>& v) {
    return u.size() == v.size() &&
           std::memcmp(u.data(), v.data(), u.size() * sizeof(double)) == 0;
  };
  for (std::size_t l = 0; l < cols.size(); ++l) {
    EXPECT_TRUE(same_bits(y_par[l],
                          test::algorithm5_reference(part, dist, a, cols[l])))
        << "column " << l;
    simt::Machine single(part.num_processors());
    EXPECT_TRUE(same_bits(y_par[l],
                          parallel_sttsv(single, part, dist, a, cols[l],
                                         simt::Transport::kPointToPoint)
                              .y))
        << "column " << l;
  }
}

TEST(ParallelMttkrp, RejectsBadInputs) {
  tensor::SymTensor3 a(10);
  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(2));
  const partition::VectorDistribution dist(part, 10);
  simt::Machine machine(part.num_processors());
  simt::DirectExchange direct(machine);
  EXPECT_THROW(parallel_symmetric_mttkrp(direct, part, dist, a, {},
                                         simt::Transport::kPointToPoint),
               PreconditionError);
  EXPECT_THROW(
      parallel_symmetric_mttkrp(direct, part, dist, a,
                                {std::vector<double>(9, 0.0)},
                                simt::Transport::kPointToPoint),
      PreconditionError);
  // A dead rank is rejected at entry, before anything moves.
  machine.mark_dead(3);
  EXPECT_THROW(
      parallel_symmetric_mttkrp(direct, part, dist, a,
                                {std::vector<double>(10, 1.0)},
                                simt::Transport::kPointToPoint),
      PreconditionError);
  EXPECT_EQ(machine.ledger().total_words(), 0u);
}

}  // namespace
}  // namespace sttsv::core
