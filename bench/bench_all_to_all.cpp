// Reproduces the end of Section 7.2.2: realizing Algorithm 5's exchanges
// with All-to-All collectives costs 4n/(q+1)·(1 - 1/P) per processor —
// about TWICE the scheduled point-to-point cost (and the lower bound's
// leading term) — and takes P-1 steps instead of q³/2 + 3q²/2 - 1.

#include <cstdlib>
#include <iostream>

#include "core/comm_only.hpp"
#include "core/costs.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "repro_common.hpp"
#include "simt/machine.hpp"
#include "steiner/constructions.hpp"
#include "support/table.hpp"

int main() {
  using namespace sttsv;
  repro::banner(
      "Section 7.2.2: All-to-All collective vs scheduled point-to-point");

  repro::Checker check;
  TextTable table({"q", "P", "n", "p2p words", "a2a modeled words",
                   "a2a formula", "a2a/p2p", "p2p steps", "a2a steps"},
                  std::vector<Align>(9, Align::kRight));

  double prev_ratio = 1.0;
  for (const std::size_t q : {2u, 3u, 4u, 5u, 7u}) {
    const std::size_t m = q * q + 1;
    const std::size_t P = core::spherical_processor_count(q);
    const std::size_t b = q * (q + 1) * 2;
    const std::size_t n = m * b;

    const auto part =
        partition::TetraPartition::build(steiner::spherical_system(q));
    const partition::VectorDistribution dist(part, n);

    simt::Machine p2p(P);
    simt::DirectExchange p2p_direct(p2p);
    core::simulate_communication(p2p_direct, part, dist,
                                 simt::Transport::kPointToPoint);
    simt::Machine a2a(P);
    simt::DirectExchange a2a_direct(a2a);
    core::simulate_communication(a2a_direct, part, dist,
                                 simt::Transport::kAllToAll);

    const auto p2p_words = p2p.ledger().max_words_sent();
    const auto a2a_modeled = a2a.ledger().modeled_collective_words();
    const double a2a_formula = core::all_to_all_words(n, q);
    const double ratio = static_cast<double>(a2a_modeled) /
                         static_cast<double>(p2p_words);

    table.add_row({std::to_string(q), std::to_string(P), std::to_string(n),
                   std::to_string(p2p_words), std::to_string(a2a_modeled),
                   format_double(a2a_formula, 1), format_double(ratio, 3),
                   std::to_string(p2p.ledger().rounds()),
                   std::to_string(a2a.ledger().rounds())});

    check.check_near(static_cast<double>(a2a_modeled), a2a_formula, 1e-12,
                     "q=" + std::to_string(q) +
                         ": modeled collective cost == 4n/(q+1)(1-1/P)");
    check.check(ratio > prev_ratio && ratio < 2.0,
                "q=" + std::to_string(q) +
                    ": All-to-All overhead grows with q toward the "
                    "asymptotic 2x");
    prev_ratio = ratio;
    check.check(a2a.ledger().rounds() == 2 * (P - 1),
                "q=" + std::to_string(q) + ": All-to-All takes P-1 steps "
                                           "per vector");
    check.check(
        p2p.ledger().rounds() == 2 * core::p2p_steps_per_vector(q),
        "q=" + std::to_string(q) +
            ": point-to-point takes q³/2+3q²/2-1 steps per vector");
  }

  std::cout << "\n" << table << "\n";
  std::cout << (check.exit_code() == 0 ? "ALL-TO-ALL COMPARISON REPRODUCED"
                                       : "ALL-TO-ALL CHECKS FAILED")
            << "\n";
  return check.exit_code();
}
