// Distributed-vector layer tests: scatter/gather round trips, counted
// BLAS-1 reductions, the persistent-distribution STTSV, the tree
// allreduce, and the fully distributed HOPM driver.

#include <gtest/gtest.h>

#include <cmath>

#include "apps/hopm.hpp"
#include "apps/vec_ops.hpp"
#include "core/costs.hpp"
#include "core/distributed_vector.hpp"
#include "core/parallel_sttsv.hpp"
#include "core/sttsv_seq.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/collective.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv::core {
namespace {

TEST(Allreduce, SumsAcrossRanks) {
  for (const std::size_t P : {1u, 2u, 3u, 5u, 8u, 13u}) {
    simt::Machine machine(P);
    simt::DirectExchange direct(machine);
    std::vector<std::vector<double>> contributions(P);
    double expected0 = 0.0;
    double expected1 = 0.0;
    for (std::size_t p = 0; p < P; ++p) {
      contributions[p] = {static_cast<double>(p + 1),
                          static_cast<double>(p * p)};
      expected0 += static_cast<double>(p + 1);
      expected1 += static_cast<double>(p * p);
    }
    const auto sum = simt::allreduce_sum(direct, contributions);
    ASSERT_EQ(sum.size(), 2u);
    EXPECT_DOUBLE_EQ(sum[0], expected0);
    EXPECT_DOUBLE_EQ(sum[1], expected1);
    machine.ledger().verify_conservation();
    if (P > 1) {
      // Tree pattern: 2(P-1) messages total (each non-root sends once in
      // the reduce and receives once in the broadcast).
      EXPECT_EQ(machine.ledger().total_messages(), 2 * (P - 1));
    }
  }
}

TEST(Allreduce, LogarithmicWordsPerRank) {
  const std::size_t P = 64;
  simt::Machine machine(P);
  simt::DirectExchange direct(machine);
  std::vector<std::vector<double>> contributions(P,
                                                 std::vector<double>(1, 1.0));
  (void)simt::allreduce_sum(direct, contributions);
  // Max words any rank sends: <= 2 ceil(log2 P) single-word messages.
  EXPECT_LE(machine.ledger().max_words_sent(), 2 * 6);
}

TEST(Allreduce, DoesNotMutateContributions) {
  // The in-place tree reduction must accumulate into pool-backed copies,
  // never into the caller's contribution vectors: callers reuse them
  // (HOPM re-submits norms across iterations) and aliasing would fold
  // partial sums back into later rounds.
  for (const std::size_t P : {2u, 5u, 8u}) {
    simt::Machine machine(P);
    simt::DirectExchange direct(machine);
    std::vector<std::vector<double>> contributions(P);
    for (std::size_t p = 0; p < P; ++p) {
      contributions[p] = {static_cast<double>(p) + 0.25, -1.0,
                          static_cast<double>(p * 3)};
    }
    const auto before = contributions;
    const auto once = simt::allreduce_sum(direct, contributions);
    EXPECT_EQ(contributions, before);
    // Re-running with the untouched inputs must reproduce the sum bitwise.
    const auto twice = simt::allreduce_sum(direct, contributions);
    EXPECT_EQ(once, twice);
    EXPECT_EQ(contributions, before);
  }
}

TEST(DistributedVector, ScatterGatherRoundTrip) {
  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(2));
  for (const std::size_t n : {60u, 37u, 5u}) {
    const partition::VectorDistribution dist(part, n);
    Rng rng(n);
    const auto global = rng.uniform_vector(n);
    const auto dv = DistributedVector::scatter(dist, global);
    EXPECT_EQ(dv.gather(), global);
  }
}

TEST(DistributedVector, DotMatchesSequential) {
  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(2));
  const std::size_t n = 60;
  const partition::VectorDistribution dist(part, n);
  Rng rng(3);
  const auto ga = rng.uniform_vector(n);
  const auto gb = rng.uniform_vector(n);
  const auto da = DistributedVector::scatter(dist, ga);
  const auto db = DistributedVector::scatter(dist, gb);
  simt::Machine machine(part.num_processors());
  simt::DirectExchange direct(machine);
  const double d = DistributedVector::dot(direct, da, db);
  EXPECT_NEAR(d, apps::dot(ga, gb), 1e-10);
  EXPECT_GT(machine.ledger().total_words(), 0u);  // reduction was counted
}

TEST(DistributedVector, ScaleAndAxpy) {
  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(2));
  const std::size_t n = 45;
  const partition::VectorDistribution dist(part, n);
  Rng rng(4);
  const auto ga = rng.uniform_vector(n);
  const auto gb = rng.uniform_vector(n);
  auto da = DistributedVector::scatter(dist, ga);
  const auto db = DistributedVector::scatter(dist, gb);
  da.scale(2.0);
  da.axpy(-0.5, db);
  const auto out = da.gather();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(out[i], 2.0 * ga[i] - 0.5 * gb[i], 1e-12);
  }
}

TEST(ParallelSttsvDist, MatchesGatherBasedRun) {
  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(2));
  for (const std::size_t n : {60u, 41u}) {
    const partition::VectorDistribution dist(part, n);
    Rng rng(10 + n);
    const auto a = tensor::random_symmetric(n, rng);
    const auto x = rng.uniform_vector(n);

    simt::Machine m1(part.num_processors());
    const auto full = parallel_sttsv(m1, part, dist, a, x,
                                     simt::Transport::kPointToPoint);

    simt::Machine m2(part.num_processors());
    simt::DirectExchange m2_direct(m2);
    const auto dv_x = DistributedVector::scatter(dist, x);
    std::vector<std::uint64_t> ternary;
    const auto dv_y = parallel_sttsv_dist(
        m2_direct, part, a, dv_x, simt::Transport::kPointToPoint, &ternary);
    const auto y = dv_y.gather();

    ASSERT_EQ(y.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y[i], full.y[i], 1e-12);
    }
    // Identical communication (the persistent version IS Algorithm 5).
    EXPECT_EQ(m1.ledger().total_words(), m2.ledger().total_words());
    EXPECT_EQ(m1.ledger().total_messages(), m2.ledger().total_messages());
    EXPECT_EQ(ternary, full.ternary_mults);
  }
}

TEST(HopmFullyDistributed, AgreesWithSequential) {
  Rng rng(21);
  const std::size_t n = 60;
  const auto a = tensor::random_low_rank(n, {4.0, 1.0}, rng, nullptr);
  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(2));
  const partition::VectorDistribution dist(part, n);

  apps::HopmOptions opts;
  opts.shift = 1.0;
  opts.max_iterations = 2000;
  const auto seq = apps::hopm(a, opts);

  simt::Machine machine(part.num_processors());
  simt::DirectExchange direct(machine);
  const auto par = apps::hopm_fully_distributed(direct, part, dist, a, opts);
  EXPECT_TRUE(par.converged);
  EXPECT_NEAR(par.eigenvalue, seq.eigenvalue, 1e-7);
  EXPECT_LT(apps::sign_invariant_distance(par.eigenvector, seq.eigenvector),
            1e-5);
  EXPECT_LT(par.residual, 1e-7);
}

TEST(HopmFullyDistributed, ReductionOverheadIsLogarithmic) {
  // Per iteration: 1 STTSV exchange (dominant) + ~3 scalar allreduces.
  // The allreduce words are O(log P) per rank, tiny next to the STTSV's.
  Rng rng(22);
  const std::size_t n = 120;
  const auto a = tensor::random_low_rank(n, {5.0}, rng, nullptr);
  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(2));
  const partition::VectorDistribution dist(part, n);

  apps::HopmOptions opts;
  opts.max_iterations = 50;
  opts.tolerance = 0.0;  // force exactly max_iterations STTSVs
  simt::Machine machine(part.num_processors());
  simt::DirectExchange direct(machine);
  const auto res = apps::hopm_fully_distributed(direct, part, dist, a, opts);
  EXPECT_EQ(res.iterations, 50u);

  const double sttsv_words = core::optimal_algorithm_words(n, 2);
  const double total = static_cast<double>(machine.ledger().max_words_sent());
  // 51 STTSV exchanges (50 iterations + final eigenvalue pass) plus
  // reductions; reductions must be a small fraction.
  EXPECT_GT(total, 51.0 * sttsv_words);
  EXPECT_LT(total, 51.0 * sttsv_words * 1.25);
}

TEST(DistributedVector, ShareAccessValidation) {
  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(2));
  const partition::VectorDistribution dist(part, 30);
  DistributedVector dv(dist);
  EXPECT_THROW(dv.share(99, 0), PreconditionError);
  // Rank 0 owns only blocks in R_0; find one it does not own.
  const auto& r0 = part.R(0);
  std::size_t missing = 0;
  while (std::binary_search(r0.begin(), r0.end(), missing)) ++missing;
  EXPECT_THROW(dv.share(0, missing), PreconditionError);
}

}  // namespace
}  // namespace sttsv::core
