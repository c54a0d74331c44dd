// The 2D → 3D generalization story: triangle block partitions (prior
// work) achieve 2n/√P for symmetric MATRIX-vector products; the paper's
// tetrahedral partitions achieve 2n/∛P for symmetric TENSOR-vector
// products. Both measured on the simulator against their closed forms
// and lower bounds, side by side.

#include <cstdlib>
#include <iostream>

#include "core/comm_only.hpp"
#include "core/costs.hpp"
#include "matrix/pair_system.hpp"
#include "matrix/parallel_symv.hpp"
#include "matrix/sym_matrix.hpp"
#include "matrix/triangle_partition.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "repro_common.hpp"
#include "simt/machine.hpp"
#include "steiner/constructions.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

int main() {
  using namespace sttsv;
  repro::banner("2D triangle partitions (prior work) vs 3D tetrahedral");

  repro::Checker check;

  // --- 2D: parallel SYMV on PG(2, q) triangle partitions. --------------
  TextTable t2({"q", "P=q^2+q+1", "n", "measured words", "2qn/(q^2+q+1)",
                "2D lower bound", "ratio"},
               std::vector<Align>(7, Align::kRight));
  for (const std::size_t q : {2u, 3u, 4u, 5u, 7u}) {
    const std::size_t m = q * q + q + 1;
    const std::size_t n = m * (q + 1) * 4;
    const auto part =
        matrix::TrianglePartition::build(matrix::projective_plane_system(q),
                                         n);
    Rng rng(q);
    const auto a = matrix::random_symmetric_matrix(n, rng);
    const auto x = rng.uniform_vector(n);
    simt::Machine machine(part.num_processors());
    simt::DirectExchange direct(machine);
    (void)matrix::parallel_symv(direct, part, a, x,
                                simt::Transport::kPointToPoint);
    const auto measured = machine.ledger().max_words_sent();
    const double formula = matrix::optimal_symv_words(n, q);
    const double lb = matrix::symv_lower_bound_words(n, m);
    t2.add_row({std::to_string(q), std::to_string(m), std::to_string(n),
                std::to_string(measured), format_double(formula, 1),
                format_double(lb, 1),
                format_double(static_cast<double>(measured) / lb, 4)});
    check.check_near(static_cast<double>(measured), formula, 1e-12,
                     "2D q=" + std::to_string(q) +
                         ": measured == closed form exactly");
    check.check(static_cast<double>(measured) >= lb * 0.999,
                "2D q=" + std::to_string(q) + ": lower bound respected");
  }
  std::cout << "\n" << t2 << "\n";

  // --- 3D: the paper's Algorithm 5 at comparable scale. ----------------
  TextTable t3({"q", "P=q(q^2+1)", "n", "measured words",
                "2n((q+1)/(q^2+1)-1/P)", "3D lower bound", "ratio"},
               std::vector<Align>(7, Align::kRight));
  for (const std::size_t q : {2u, 3u, 4u, 5u}) {
    const std::size_t m = q * q + 1;
    const std::size_t P = core::spherical_processor_count(q);
    const std::size_t n = m * q * (q + 1) * 4;
    const auto part =
        partition::TetraPartition::build(steiner::spherical_system(q));
    const partition::VectorDistribution dist(part, n);
    simt::Machine machine(P);
    simt::DirectExchange direct(machine);
    core::simulate_communication(direct, part, dist,
                                 simt::Transport::kPointToPoint);
    const auto measured = machine.ledger().max_words_sent();
    const double formula = core::optimal_algorithm_words(n, q);
    const double lb = core::lower_bound_words(n, P);
    t3.add_row({std::to_string(q), std::to_string(P), std::to_string(n),
                std::to_string(measured), format_double(formula, 1),
                format_double(lb, 1),
                format_double(static_cast<double>(measured) / lb, 4)});
    check.check_near(static_cast<double>(measured), formula, 1e-12,
                     "3D q=" + std::to_string(q) +
                         ": measured == closed form exactly");
  }
  std::cout << "\n" << t3 << "\n";

  std::cout << "2D replication of each vector element: λ1 = q+1 ~ sqrt(P);"
               " words ~ 2n/sqrt(P).\n"
               "3D replication: λ1 = q(q+1) ~ P^(2/3);"
               " words ~ 2n/P^(1/3) — the same construction, one "
               "dimension up (paper Sections 6-7).\n\n";
  std::cout << (check.exit_code() == 0 ? "2D/3D COMPARISON REPRODUCED"
                                       : "2D/3D CHECKS FAILED")
            << "\n";
  return check.exit_code();
}
