// The 2D ancestor in action: a communication-optimal parallel symmetric
// matrix-vector product on a triangle block partition generated from the
// Fano plane and larger projective planes — the construction the paper
// lifts to tensors. Prints measured words against the closed form and
// the 2D lower bound for growing q.

#include <cmath>
#include <iostream>

#include "matrix/pair_system.hpp"
#include "matrix/parallel_symv.hpp"
#include "matrix/sym_matrix.hpp"
#include "matrix/triangle_partition.hpp"
#include "simt/machine.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

int main() {
  using namespace sttsv;

  std::cout << "parallel SYMV on triangle block partitions "
               "(projective planes PG(2, q))\n\n";
  TextTable table({"q", "P", "n", "measured words/rank", "2qn/(q^2+q+1)",
                   "2D lower bound", "vs bound"},
                  std::vector<Align>(7, Align::kRight));

  bool all_ok = true;
  for (const std::size_t q : {2u, 3u, 4u, 5u}) {
    const std::size_t m = q * q + q + 1;
    const std::size_t n = m * (q + 1) * 3;
    const auto part =
        matrix::TrianglePartition::build(matrix::projective_plane_system(q),
                                         n);
    Rng rng(q);
    const auto a = matrix::random_symmetric_matrix(n, rng);
    const auto x = rng.uniform_vector(n);

    simt::Machine machine(part.num_processors());
    simt::DirectExchange direct(machine);
    const auto result = matrix::parallel_symv(
        direct, part, a, x, simt::Transport::kPointToPoint);

    const auto y_ref = matrix::symv(a, x);
    double max_diff = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      max_diff = std::max(max_diff, std::abs(result.y[i] - y_ref[i]));
    }
    all_ok = all_ok && max_diff < 1e-8;

    const double lb = matrix::symv_lower_bound_words(n, m);
    table.add_row(
        {std::to_string(q), std::to_string(m), std::to_string(n),
         std::to_string(machine.ledger().max_words_sent()),
         format_double(matrix::optimal_symv_words(n, q), 1),
         format_double(lb, 1),
         format_double(
             static_cast<double>(machine.ledger().max_words_sent()) / lb,
             3)});
  }
  std::cout << table;
  std::cout << "\n(the same owner-compute + Steiner-replication idea gives "
               "2n/sqrt(P) here and 2n/cbrt(P) for tensors.)\n";
  return all_ok ? 0 : 1;
}
