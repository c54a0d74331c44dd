// Multi-start eigenpair search tests.

#include <gtest/gtest.h>

#include <cmath>

#include "apps/eigensearch.hpp"
#include "apps/vec_ops.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv::apps {
namespace {

TEST(EigenSearch, FindsDiagonalEigenpairs) {
  // For a_iii = d_i, every e_i is a Z-eigenpair with value d_i; SS-HOPM
  // reaches the robust ones (|d_i| locally maximal attractors).
  const auto a = tensor::super_diagonal({6.0, 4.0, 2.0, 1.0});
  EigenSearchOptions opts;
  opts.num_starts = 40;
  opts.hopm.shift = 1.0;
  opts.hopm.max_iterations = 3000;
  const auto pairs = find_eigenpairs(a, opts);
  ASSERT_FALSE(pairs.empty());
  // Sorted by |value| descending; top value should be ~6.
  EXPECT_NEAR(pairs[0].value, 6.0, 1e-6);
  for (const auto& pair : pairs) {
    EXPECT_LT(pair.residual, 1e-6);
    EXPECT_GE(pair.hits, 1u);
  }
  // All found eigenvalues should be among the diagonal entries.
  for (const auto& pair : pairs) {
    const double v = std::abs(pair.value);
    const bool known = std::abs(v - 6.0) < 1e-5 ||
                       std::abs(v - 4.0) < 1e-5 ||
                       std::abs(v - 2.0) < 1e-5 || std::abs(v - 1.0) < 1e-5;
    EXPECT_TRUE(known) << "unexpected eigenvalue " << pair.value;
  }
}

TEST(EigenSearch, DeduplicatesRepeatedConvergence) {
  // Rank-1 tensor: every start converges to the same (±v, ±λ) couple, so
  // exactly one deduplicated pair must come back with many hits.
  Rng rng(9);
  const std::size_t n = 10;
  std::vector<double> v(n);
  for (auto& x : v) x = rng.next_normal();
  normalize(v);
  const auto a = tensor::low_rank_symmetric(n, {2.5}, {v});

  EigenSearchOptions opts;
  opts.num_starts = 8;
  opts.hopm.shift = 0.5;
  opts.hopm.max_iterations = 2000;
  const auto pairs = find_eigenpairs(a, opts);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].hits, 8u);
  EXPECT_NEAR(std::abs(pairs[0].value), 2.5, 1e-6);
  EXPECT_LT(sign_invariant_distance(pairs[0].vector, v), 1e-5);
}

TEST(EigenSearch, BatchedMatchesPerStartParallelLoop) {
  // The batched driver promises per-start arithmetic identical to
  // hopm_parallel with seed seed_base + start: every returned pair must
  // carry the exact eigenvalue and residual of one of those runs
  // (canonicalized), not merely a close value.
  Rng rng(13);
  const std::size_t n = 60;
  const auto a = tensor::random_low_rank(n, {4.0, 1.0}, rng, nullptr);

  EigenSearchOptions opts;
  opts.num_starts = 4;
  opts.hopm.shift = 1.0;
  opts.hopm.max_iterations = 2000;

  const auto plan = batch::Plan::build(
      batch::plan_key(n, batch::Family::kSpherical, 2,
                      simt::Transport::kPointToPoint));
  simt::Machine machine = plan->make_machine();
  const auto pairs = find_eigenpairs_batched(machine, *plan, a, opts);
  ASSERT_FALSE(pairs.empty());

  std::vector<HopmResult> loop;
  simt::DirectExchange direct(machine);
  for (std::size_t s = 0; s < opts.num_starts; ++s) {
    HopmOptions run = opts.hopm;
    run.seed = opts.seed_base + s;
    loop.push_back(hopm_parallel(direct, plan->partition(),
                                 plan->distribution(), a, run));
  }

  for (const auto& pair : pairs) {
    bool matched = false;
    for (const HopmResult& res : loop) {
      if (!res.converged) continue;
      const double sign =
          dot(pair.vector, res.eigenvector) < 0.0 ? -1.0 : 1.0;
      if (pair.value == sign * res.eigenvalue &&
          pair.residual == res.residual) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "eigenpair " << pair.value
                         << " not produced by any per-start loop run";
  }
}

TEST(EigenSearch, SortedByMagnitude) {
  const auto a = tensor::super_diagonal({1.0, 5.0, 3.0});
  EigenSearchOptions opts;
  opts.num_starts = 30;
  opts.hopm.shift = 1.0;
  opts.hopm.max_iterations = 3000;
  const auto pairs = find_eigenpairs(a, opts);
  for (std::size_t t = 1; t < pairs.size(); ++t) {
    EXPECT_GE(std::abs(pairs[t - 1].value), std::abs(pairs[t].value));
  }
}

}  // namespace
}  // namespace sttsv::apps
