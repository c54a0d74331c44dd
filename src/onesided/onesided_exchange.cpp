#include "onesided/onesided_exchange.hpp"

#include "obs/trace.hpp"
#include "support/check.hpp"

namespace sttsv::onesided {

OneSidedExchange::OneSidedExchange(simt::Machine& machine)
    : Exchanger(machine) {}

std::vector<std::vector<simt::Delivery>> OneSidedExchange::exchange(
    std::vector<std::vector<simt::Envelope>> outboxes,
    simt::Transport transport) {
  obs::Span span("onesided.epoch", obs::Category::kOneSided);
  // A Put writes a payload and nothing else; checked before the walk, so
  // a precondition failure leaves the ledger untouched.
  for (const auto& outbox : outboxes) {
    for (const simt::Envelope& env : outbox) {
      STTSV_REQUIRE(env.overhead_words == 0,
                    "one-sided transport carries no protocol framing");
      STTSV_REQUIRE(!env.data.empty(), "one-sided puts need a payload");
    }
  }
  std::vector<std::vector<simt::Delivery>> inboxes;
  const simt::WalkTally& tally =
      deliver(outboxes, inboxes, simt::Channel::kOneSided, nullptr);
  const std::size_t onesided_words =
      tally.words[static_cast<std::size_t>(simt::Channel::kOneSided)];
  const std::size_t recovery_words =
      tally.words[static_cast<std::size_t>(simt::Channel::kRecovery)];
  span.set_arg(onesided_words + recovery_words);
  if (onesided_words + recovery_words == 0) return inboxes;

  // The fence. Its α-term: one fence per active origin, one exposure
  // notification per active target, charged per level (DESIGN.md §17) —
  // a rank that Put on both networks fences each of them. On a flat
  // machine every Put lands on kIntra.
  simt::CommLedger& ledger = machine_.ledger();
  for (std::size_t lvl = 0; lvl < simt::kNumLevels; ++lvl) {
    std::size_t sync_ops = 0;
    for (std::size_t p = 0; p < machine_.num_ranks(); ++p) {
      if (tally.sends[lvl][p] > 0) ++sync_ops;
      if (tally.recvs[lvl][p] > 0) ++sync_ops;
    }
    if (sync_ops > 0) {
      ledger.add_sync_ops(static_cast<simt::Level>(lvl), sync_ops);
    }
  }
  simt::charge_rounds(ledger,
                      onesided_words > 0 ? simt::Channel::kOneSided
                                         : simt::Channel::kRecovery,
                      transport, tally.sends, tally.recvs,
                      tally.max_pair_words);
  return inboxes;
}

}  // namespace sttsv::onesided
