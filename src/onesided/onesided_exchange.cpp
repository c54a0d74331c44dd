#include "onesided/onesided_exchange.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace sttsv::onesided {

OneSidedExchange::OneSidedExchange(simt::Machine& machine)
    : Exchanger(machine) {}

std::vector<std::vector<simt::Delivery>> OneSidedExchange::exchange(
    std::vector<std::vector<simt::Envelope>> outboxes,
    simt::Transport transport) {
  obs::Span span("onesided.epoch", obs::Category::kOneSided);
  const std::size_t P = machine_.num_ranks();
  STTSV_REQUIRE(outboxes.size() == P,
                "outboxes must cover every rank exactly once");
  // Validate every envelope before the first Put, so a precondition
  // failure leaves the ledger untouched.
  for (std::size_t from = 0; from < P; ++from) {
    for (const simt::Envelope& env : outboxes[from]) {
      STTSV_REQUIRE(env.to < P, "envelope destination out of range");
      STTSV_REQUIRE(env.to != from,
                    "self-messages are local copies, not comm");
      STTSV_REQUIRE(env.overhead_words == 0,
                    "one-sided transport carries no protocol framing");
      STTSV_REQUIRE(!env.data.empty(), "one-sided puts need a payload");
    }
  }

  // Put counts are kept per topology level (DESIGN.md §17) so fences,
  // notifications and König rounds are charged to the network that
  // actually carried each Put; a flat machine puts everything on kIntra
  // and the totals match the historical single-level charge.
  simt::LevelCounts puts_issued;
  simt::LevelCounts puts_received;
  for (auto& level : puts_issued) level.assign(P, 0);
  for (auto& level : puts_received) level.assign(P, 0);
  std::size_t max_pair_words = 0;
  std::uint64_t onesided_words = 0;
  std::uint64_t recovery_words = 0;

  std::vector<std::vector<simt::Delivery>> inboxes(P);
  // Deterministic landing order: origins ascending, each origin's
  // envelopes by destination (insertion order kept), like the mailbox
  // path. Every inbox is then origin-ascending, and a pair's Puts are
  // adjacent, so its words are a running sum.
  for (std::size_t from = 0; from < P; ++from) {
    simt::sort_by_destination(outboxes[from]);
    std::size_t pair_to = P;
    std::size_t pair_words = 0;
    for (simt::Envelope& env : outboxes[from]) {
      // Membership truth mirrors Machine: traffic touching a dead rank
      // is dropped uncharged.
      if (!machine_.alive(from) || !machine_.alive(env.to)) continue;
      const std::size_t words = env.data.size();
      if (env.recovery) {
        machine_.ledger().record(simt::Channel::kRecovery, from, env.to,
                                 words);
        recovery_words += words;
      } else {
        machine_.ledger().record(simt::Channel::kOneSided, from, env.to,
                                 words);
        onesided_words += words;
      }
      const auto lvl = static_cast<std::size_t>(
          machine_.ledger().level_of(from, env.to));
      ++puts_issued[lvl][from];
      ++puts_received[lvl][env.to];
      if (env.to != pair_to) {
        pair_to = env.to;
        pair_words = 0;
      }
      pair_words += words;
      max_pair_words = std::max(max_pair_words, pair_words);
      ++stats_.puts;
      stats_.put_words += words;
      // The Put itself: the sender's slab changes hands, no copy.
      inboxes[env.to].push_back(simt::Delivery{from, std::move(env.data)});
    }
  }
  span.set_arg(onesided_words + recovery_words);

  // The fence: charge sync ops and rounds.
  ++stats_.epochs;
  if (onesided_words + recovery_words > 0) {  // every Put carries words
    // The α-term: one fence per active origin, one exposure notification
    // per active target, charged per level (DESIGN.md §17) — a rank that
    // Put on both networks fences each of them. On a flat machine every
    // Put lands on kIntra and the totals match the historical charge.
    for (std::size_t lvl = 0; lvl < simt::kNumLevels; ++lvl) {
      std::size_t fences = 0;
      std::size_t notifications = 0;
      for (std::size_t p = 0; p < P; ++p) {
        if (puts_issued[lvl][p] > 0) ++fences;
        if (puts_received[lvl][p] > 0) ++notifications;
      }
      if (fences + notifications > 0) {
        machine_.ledger().add_sync_ops(static_cast<simt::Level>(lvl),
                                       fences + notifications);
        stats_.fences += fences;
        stats_.notifications += notifications;
      }
    }
    simt::charge_rounds(machine_.ledger(),
                        onesided_words > 0 ? simt::Channel::kOneSided
                                           : simt::Channel::kRecovery,
                        transport, puts_issued, puts_received, max_pair_words);
  }
  return inboxes;
}

void OneSidedExchange::publish_metrics(obs::MetricsRegistry& out,
                                       const std::string& prefix) const {
  out.set_counter(prefix + ".epochs", stats_.epochs);
  out.set_counter(prefix + ".puts", stats_.puts);
  out.set_counter(prefix + ".put_words", stats_.put_words);
  out.set_counter(prefix + ".fences", stats_.fences);
  out.set_counter(prefix + ".notifications", stats_.notifications);
}

}  // namespace sttsv::onesided
