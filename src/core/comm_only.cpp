#include "core/comm_only.hpp"

#include <utility>
#include <vector>

#include "partition/exchange_walk.hpp"
#include "support/check.hpp"

namespace sttsv::core {

void simulate_communication(simt::Exchanger& exchanger,
                            const partition::TetraPartition& part,
                            const partition::VectorDistribution& dist,
                            simt::Transport transport) {
  simt::Machine& machine = exchanger.machine();
  const std::size_t P = part.num_processors();
  STTSV_REQUIRE(machine.num_ranks() == P,
                "machine rank count must match partition");
  const partition::ExchangeWalk walk(part, dist);

  // Phase 1 carries the sender's shares of the common blocks (x_words),
  // phase 3 the receiver's (y_words).
  for (const bool y_phase : {false, true}) {
    exchanger.set_phase(y_phase ? "y-replay" : "x-replay");
    std::vector<std::vector<simt::Envelope>> out(P);
    for (std::size_t p = 0; p < P; ++p) {
      for (const partition::ExchangeWalk::PeerExchange& ex :
           walk.exchanges(p)) {
        const std::size_t words = y_phase ? ex.y_words : ex.x_words;
        if (words > 0) {
          out[p].push_back(
              simt::Envelope{ex.peer, std::vector<double>(words, 0.0)});
        }
      }
    }
    (void)exchanger.exchange(std::move(out), transport);
  }
  machine.ledger().verify_conservation();
}

}  // namespace sttsv::core
