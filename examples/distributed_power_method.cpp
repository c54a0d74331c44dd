// Fully distributed power method: the iterate never leaves its per-rank
// shares. Demonstrates the production pattern — one STTSV exchange plus
// O(log P) words of scalar allreduces per iteration — and prints the
// communication breakdown from the ledger.

#include <cmath>
#include <iostream>

#include "apps/hopm.hpp"
#include "core/costs.hpp"
#include "core/mttkrp.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/machine.hpp"
#include "steiner/constructions.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

int main() {
  using namespace sttsv;

  const std::size_t q = 3;  // P = 30 simulated processors
  const std::size_t n = 240;
  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(q));
  const partition::VectorDistribution dist(part, n);

  Rng rng(77);
  const auto a = tensor::random_low_rank(n, {8.0, 2.0, 1.0}, rng, nullptr);

  apps::HopmOptions opts;
  opts.shift = 1.0;
  opts.max_iterations = 2000;

  simt::Machine machine(part.num_processors());
  simt::DirectExchange direct(machine);
  const auto res =
      apps::hopm_fully_distributed(direct, part, dist, a, opts);

  std::cout << "fully distributed SS-HOPM, n = " << n << ", P = "
            << machine.num_ranks() << "\n";
  std::cout << "  eigenvalue  = " << res.eigenvalue << "\n";
  std::cout << "  iterations  = " << res.iterations
            << (res.converged ? " (converged)" : " (max iters)") << "\n";
  std::cout << "  residual    = " << res.residual << "\n\n";

  const double sttsv_words = core::optimal_algorithm_words(n, q);
  const double sttsv_total =
      sttsv_words * static_cast<double>(res.iterations + 1);
  const double total = static_cast<double>(machine.ledger().max_words_sent());
  std::cout << "communication per rank (max):\n";
  std::cout << "  total words            = " << total << "\n";
  std::cout << "  STTSV exchanges        = " << sttsv_total << " ("
            << res.iterations + 1 << " x " << sttsv_words << ")\n";
  std::cout << "  reduction overhead     = " << total - sttsv_total << " ("
            << 100.0 * (total - sttsv_total) / total << "% of total)\n";
  std::cout << "  rounds                 = " << machine.ledger().rounds()
            << "\n";

  // Bonus: a batched MTTKRP on the same machine layout (CP bottleneck).
  std::vector<std::vector<double>> cols(4);
  for (auto& c : cols) c = rng.uniform_vector(n);
  simt::Machine mmach(part.num_processors());
  simt::DirectExchange mmach_direct(mmach);
  (void)core::parallel_symmetric_mttkrp(mmach_direct, part, dist, a, cols,
                                        simt::Transport::kPointToPoint);
  std::cout << "\nbatched MTTKRP (r = 4): "
            << mmach.ledger().max_words_sent() << " words/rank in "
            << mmach.ledger().rounds() << " rounds ("
            << "= 4 x one STTSV's words, same rounds)\n";
  return res.converged ? 0 : 1;
}
