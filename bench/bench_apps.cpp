// End-to-end application reproduction (paper Algorithms 1 and 2): the
// higher-order power method and the symmetric CP gradient both reduce to
// repeated STTSV calls; run them through Algorithm 5 on the simulated
// machine and confirm (a) numerical agreement with the sequential code,
// (b) per-iteration communication equal to one STTSV exchange.

#include <cmath>
#include <cstdlib>
#include <iostream>

#include "apps/cp_decompose.hpp"
#include "apps/cp_gradient.hpp"
#include "apps/hopm.hpp"
#include "apps/vec_ops.hpp"
#include "core/costs.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "repro_common.hpp"
#include "simt/machine.hpp"
#include "steiner/constructions.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "tensor/generators.hpp"

int main() {
  using namespace sttsv;
  repro::banner("Algorithms 1-2: HOPM and CP gradient on Algorithm 5");

  repro::Checker check;
  const std::size_t q = 2;
  const std::size_t m = q * q + 1;
  const std::size_t b = q * (q + 1) * 2;
  const std::size_t n = m * b;  // 60
  const std::size_t P = core::spherical_processor_count(q);

  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(q));
  const partition::VectorDistribution dist(part, n);

  // --- HOPM on a noisy low-rank tensor. --------------------------------
  Rng rng(2024);
  std::vector<std::vector<double>> factors;
  auto a = tensor::random_low_rank(n, {5.0, 1.5, 0.5}, rng, &factors);

  apps::HopmOptions hopts;
  hopts.shift = 1.0;
  hopts.max_iterations = 2000;
  const auto seq = apps::hopm(a, hopts);

  simt::Machine machine(P);
  simt::DirectExchange direct(machine);
  const auto par = apps::hopm_parallel(direct, part, dist, a, hopts);

  TextTable hopm_table({"driver", "eigenvalue", "iterations", "residual",
                        "converged"},
                       std::vector<Align>(5, Align::kRight));
  hopm_table.add_row({"sequential", format_double(seq.eigenvalue, 6),
                      std::to_string(seq.iterations),
                      format_double(seq.residual, 10),
                      seq.converged ? "yes" : "no"});
  hopm_table.add_row({"parallel (Alg. 5)", format_double(par.eigenvalue, 6),
                      std::to_string(par.iterations),
                      format_double(par.residual, 10),
                      par.converged ? "yes" : "no"});
  std::cout << hopm_table << "\n";

  check.check(seq.converged && par.converged, "HOPM converges (both)");
  check.check(std::abs(seq.eigenvalue - par.eigenvalue) < 1e-8,
              "parallel eigenvalue matches sequential");
  check.check(par.residual < 1e-6, "Z-eigenpair residual < 1e-6");
  check.check(std::abs(par.eigenvalue - 5.0) < 0.5,
              "dominant eigenvalue near the top CP weight");

  // Per-iteration communication: (iterations + 1 final STTSV) exchanges,
  // each costing the paper's per-STTSV words.
  const double per_sttsv = core::optimal_algorithm_words(n, q);
  const double expected_words =
      per_sttsv * static_cast<double>(par.iterations + 1);
  check.check_near(static_cast<double>(machine.ledger().max_words_sent()),
                   expected_words, 1e-9,
                   "HOPM communication = (iters+1) x STTSV exchange words");

  // --- CP gradient (Algorithm 2). --------------------------------------
  std::vector<std::vector<double>> cols(3);
  for (auto& ccol : cols) ccol = rng.uniform_vector(n, -0.5, 0.5);
  const auto g_seq = apps::cp_gradient(a, cols);
  simt::Machine gmachine(P);
  simt::DirectExchange gmachine_direct(gmachine);
  const auto g_par =
      apps::cp_gradient_parallel(gmachine_direct, part, dist, a, cols);
  double gdiff = 0.0;
  for (std::size_t l = 0; l < cols.size(); ++l) {
    for (std::size_t i = 0; i < n; ++i) {
      gdiff = std::max(gdiff, std::abs(g_seq[l][i] - g_par[l][i]));
    }
  }
  check.check(gdiff < 1e-9, "parallel CP gradient matches sequential");
  check.check_near(static_cast<double>(gmachine.ledger().max_words_sent()),
                   per_sttsv * 3.0, 1e-9,
                   "CP gradient communication = r x STTSV exchange words");

  // --- CP decomposition end-to-end. -------------------------------------
  apps::CpOptions copts;
  copts.rank = 3;
  copts.max_iterations = 1500;
  copts.seed = 11;
  const auto cp = apps::cp_decompose(a, copts);
  const double rel = apps::cp_relative_error(a, cp.columns);
  std::cout << "CP decomposition: rank 3, " << cp.iterations
            << " iterations, relative error " << format_double(rel, 6)
            << "\n\n";
  check.check(rel < 0.2, "rank-3 CP recovers the rank-3 tensor (<20% err)");

  std::cout << (check.exit_code() == 0 ? "APPLICATIONS REPRODUCED"
                                       : "APPLICATION CHECKS FAILED")
            << "\n";
  return check.exit_code();
}
