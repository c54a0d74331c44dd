// Z-eigenpairs of a symmetric tensor via the higher-order power method
// (paper Algorithm 1) — the workload that motivates STTSV. Runs several
// shifted power iterations from different starts to find multiple
// eigenpairs, sequentially and in parallel, and reports per-iteration
// communication.

#include <iomanip>
#include <iostream>
#include <vector>

#include "apps/hopm.hpp"
#include "apps/vec_ops.hpp"
#include "core/costs.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/machine.hpp"
#include "steiner/constructions.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

int main() {
  using namespace sttsv;

  // A rank-3 symmetric tensor with well-separated weights: its dominant
  // Z-eigenpairs are close to the CP factors.
  const std::size_t n = 60;
  Rng rng(7);
  std::vector<std::vector<double>> factors;
  const auto a =
      tensor::random_low_rank(n, {6.0, 3.0, 1.0}, rng, &factors);

  std::cout << "HOPM (SS-HOPM, shift 1.0) from 5 random starts, n = " << n
            << "\n\n";
  std::cout << std::setw(6) << "start" << std::setw(14) << "eigenvalue"
            << std::setw(8) << "iters" << std::setw(14) << "residual"
            << "\n";
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    apps::HopmOptions opts;
    opts.seed = 1000 + seed;
    opts.shift = 1.0;
    opts.max_iterations = 3000;
    const auto res = apps::hopm(a, opts);
    std::cout << std::setw(6) << seed << std::setw(14) << std::setprecision(6)
              << std::fixed << res.eigenvalue << std::setw(8)
              << res.iterations << std::setw(14) << std::scientific
              << res.residual << "\n"
              << std::defaultfloat;
  }

  // The same computation distributed over P = 10 simulated processors.
  const std::size_t q = 2;
  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(q));
  const partition::VectorDistribution dist(part, n);
  simt::Machine machine(part.num_processors());
  simt::DirectExchange direct(machine);

  apps::HopmOptions opts;
  opts.seed = 1001;
  opts.shift = 1.0;
  opts.max_iterations = 3000;
  const auto par = apps::hopm_parallel(direct, part, dist, a, opts);

  std::cout << "\nparallel run (P = " << machine.num_ranks()
            << "): eigenvalue " << par.eigenvalue << ", " << par.iterations
            << " iterations\n";
  const double per_iter =
      static_cast<double>(machine.ledger().max_words_sent()) /
      static_cast<double>(par.iterations + 1);
  std::cout << "communication per STTSV: " << per_iter
            << " words/rank (paper formula "
            << core::optimal_algorithm_words(n, q) << ")\n";
  return par.converged ? 0 : 1;
}
