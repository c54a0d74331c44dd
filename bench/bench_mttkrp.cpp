// Symmetric MTTKRP (paper Section 8's planned generalization): batched
// Algorithm 5 moves r columns in the SAME number of messages/steps as a
// single STTSV, with exactly r times the words — the latency win that
// makes CP-decomposition iterations cheap.

#include <cstdlib>
#include <iostream>

#include "core/costs.hpp"
#include "core/mttkrp.hpp"
#include "core/parallel_sttsv.hpp"
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
  repro::banner("Section 8: symmetric MTTKRP via batched Algorithm 5");

  repro::Checker check;
  const std::size_t q = 3;
  const std::size_t m = q * q + 1;
  const std::size_t b = q * (q + 1);
  const std::size_t n = m * b;
  const std::size_t P = core::spherical_processor_count(q);

  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(q));
  const partition::VectorDistribution dist(part, n);

  Rng rng(1);
  const auto a = tensor::random_symmetric(n, rng);

  TextTable table({"r", "words/rank", "r x single", "messages", "rounds",
                   "max |err| vs sequential"},
                  std::vector<Align>(6, Align::kRight));

  // Reference single-STTSV ledger.
  simt::Machine single(P);
  const auto x0 = rng.uniform_vector(n);
  (void)core::parallel_sttsv(single, part, dist, a, x0,
                             simt::Transport::kPointToPoint);
  const auto single_words = single.ledger().max_words_sent();
  const auto single_msgs = single.ledger().total_messages();
  const auto single_rounds = single.ledger().rounds();

  for (const std::size_t r : {1u, 2u, 4u, 8u}) {
    std::vector<std::vector<double>> cols(r);
    for (auto& c : cols) c = rng.uniform_vector(n);

    simt::Machine machine(P);
    simt::DirectExchange direct(machine);
    const auto y_par = core::parallel_symmetric_mttkrp(
        direct, part, dist, a, cols, simt::Transport::kPointToPoint);
    const auto y_seq = core::symmetric_mttkrp(a, cols);
    double max_err = 0.0;
    for (std::size_t l = 0; l < r; ++l) {
      for (std::size_t i = 0; i < n; ++i) {
        max_err = std::max(max_err, std::abs(y_par[l][i] - y_seq[l][i]));
      }
    }

    table.add_row({std::to_string(r),
                   std::to_string(machine.ledger().max_words_sent()),
                   std::to_string(r * single_words),
                   std::to_string(machine.ledger().total_messages()),
                   std::to_string(machine.ledger().rounds()),
                   format_double(max_err, 14)});

    check.check(max_err < 1e-9,
                "r=" + std::to_string(r) + ": batched result correct");
    check.check(machine.ledger().max_words_sent() == r * single_words,
                "r=" + std::to_string(r) + ": words scale exactly with r");
    check.check(machine.ledger().total_messages() == single_msgs,
                "r=" + std::to_string(r) +
                    ": message count independent of r (batching)");
    check.check(machine.ledger().rounds() == single_rounds,
                "r=" + std::to_string(r) + ": round count independent of r");
  }

  std::cout << "\n" << table << "\n";
  std::cout << (check.exit_code() == 0 ? "MTTKRP BATCHING REPRODUCED"
                                       : "MTTKRP CHECKS FAILED")
            << "\n";
  return check.exit_code();
}
