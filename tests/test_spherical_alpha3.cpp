// The wider spherical family S(q^α+1, q+1, 3) for α = 3 (paper Theorem
// 6.5 allows any α): these give additional admissible processor counts,
// e.g. S(28, 4, 3) with P = 819 for q = 3. Verifies the systems, builds
// their partitions, and runs a communication replay at the large P.

#include <gtest/gtest.h>

#include "core/comm_only.hpp"
#include "core/parallel_sttsv.hpp"
#include "core/sttsv_seq.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "steiner/constructions.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv::steiner {
namespace {

TEST(SphericalAlpha3, Q3System) {
  // S(28, 4, 3): 28 points, blocks of 4, P = 28·27·26/24 = 819.
  const auto sys = spherical_system(3, 3);
  EXPECT_EQ(sys.num_points(), 28u);
  EXPECT_EQ(sys.block_size(), 4u);
  EXPECT_EQ(sys.num_blocks(), 819u);
  EXPECT_EQ(sys.pair_replication(), 13u);   // (28-2)/2
  EXPECT_EQ(sys.point_replication(), 117u);  // 27·26/6
  sys.verify();
}

TEST(SphericalAlpha3, Q3PartitionValidates) {
  const auto part = partition::TetraPartition::build(spherical_system(3, 3));
  part.validate();
  EXPECT_EQ(part.num_processors(), 819u);
}

TEST(SphericalAlpha3, Q3CommunicationReplayBalanced) {
  const auto part = partition::TetraPartition::build(spherical_system(3, 3));
  // b divisible by λ₁ = 117 for even shares.
  const std::size_t n = 28 * 117;
  const partition::VectorDistribution dist(part, n);
  simt::Machine machine(part.num_processors());
  simt::DirectExchange direct(machine);
  core::simulate_communication(direct, part, dist,
                               simt::Transport::kPointToPoint);
  machine.ledger().verify_conservation();
  const auto max_sent = machine.ledger().max_words_sent();
  EXPECT_GT(max_sent, 0u);
  for (std::size_t p = 0; p < part.num_processors(); ++p) {
    EXPECT_EQ(machine.ledger().words_sent(simt::Channel::kGoodput, p),
              max_sent)
        << "p=" << p;
  }
}

TEST(SphericalAlpha3, Q2EqualsAllTriples) {
  // q = 2, α = 3: S(9, 3, 3) — necessarily all C(9,3) triples.
  const auto sys = spherical_system(2, 3);
  const auto trivial = trivial_triple_system(9);
  EXPECT_EQ(sys.blocks(), trivial.blocks());
}

TEST(SphericalAlpha3, SmallParallelRunCorrect) {
  // Full numeric run on the S(9,3,3) partition (P = 84).
  const auto part = partition::TetraPartition::build(spherical_system(2, 3));
  const std::size_t n = 54;
  const partition::VectorDistribution dist(part, n);
  Rng rng(33);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  simt::Machine machine(part.num_processors());
  const auto result = core::parallel_sttsv(
      machine, part, dist, a, x, simt::Transport::kPointToPoint);
  const auto y_ref = core::sttsv_packed(a, x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(result.y[i], y_ref[i], 1e-10);
  }
}

}  // namespace
}  // namespace sttsv::steiner
