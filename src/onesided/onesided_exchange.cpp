#include "onesided/onesided_exchange.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace sttsv::onesided {

namespace {

std::uint64_t pair_key(std::size_t from, std::size_t to) {
  return (static_cast<std::uint64_t>(from) << 32) |
         static_cast<std::uint64_t>(to);
}

}  // namespace

OneSidedExchange::OneSidedExchange(simt::Machine& machine, Mode mode)
    : Exchanger(machine), mode_(mode), registry_(machine) {}

std::vector<std::vector<simt::Delivery>> OneSidedExchange::exchange(
    std::vector<std::vector<simt::Envelope>> outboxes,
    simt::Transport transport) {
  obs::Span span("onesided.epoch", obs::Category::kOneSided);
  const std::size_t P = machine_.num_ranks();
  STTSV_REQUIRE(outboxes.size() == P,
                "outboxes must cover every rank exactly once");
  // Validate every envelope before the epoch opens, so a precondition
  // failure leaves windows and ledger untouched.
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
  std::array<std::vector<std::size_t>, simt::kNumLevels> puts_issued;
  std::array<std::vector<std::size_t>, simt::kNumLevels> puts_received;
  for (auto& level : puts_issued) level.assign(P, 0);
  for (auto& level : puts_received) level.assign(P, 0);
  std::unordered_map<std::uint64_t, std::size_t> pair_words;
  std::size_t max_pair_words = 0;
  std::uint64_t onesided_words = 0;
  std::uint64_t recovery_words = 0;

  registry_.open_epoch();
  // Deterministic landing order: origins ascending, each origin's
  // envelopes sorted by destination (stable), like the mailbox path.
  for (std::size_t from = 0; from < P; ++from) {
    std::stable_sort(outboxes[from].begin(), outboxes[from].end(),
                     [](const simt::Envelope& a, const simt::Envelope& b) {
                       return a.to < b.to;
                     });
    for (simt::Envelope& env : outboxes[from]) {
      // Membership truth mirrors Machine: traffic touching a dead rank
      // is dropped uncharged.
      if (!machine_.alive(from) || !machine_.alive(env.to)) continue;
      const std::size_t words = env.data.size();
      registry_.put(from, env.to, env.data.data(), words);
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
      const std::size_t pair = (pair_words[pair_key(from, env.to)] += words);
      max_pair_words = std::max(max_pair_words, pair);
      ++stats_.puts;
      stats_.put_words += words;
      // The sender's slab frees here (back to its shard) — the window
      // now owns the only live copy, the zero-copy end of the path.
      env.data.release();
    }
  }
  span.set_arg(onesided_words + recovery_words);

  // The fence: close the epoch, charge sync ops and rounds.
  registry_.close_epoch();
  ++stats_.epochs;
  std::size_t total_puts = 0;
  for (const auto& level : puts_issued) {
    for (const std::size_t k : level) total_puts += k;
  }
  if (total_puts > 0) {
    // The α-term: one fence per active origin, one exposure notification
    // per active target, charged per level (DESIGN.md §17) — a rank that
    // Put on both networks fences each of them. On a flat machine every
    // Put lands on kIntra and the totals match the historical charge.
    const simt::Channel channel = onesided_words > 0
                                      ? simt::Channel::kOneSided
                                      : simt::Channel::kRecovery;
    for (std::size_t lvl = 0; lvl < simt::kNumLevels; ++lvl) {
      std::size_t fences = 0;
      std::size_t notifications = 0;
      std::size_t delta = 0;
      for (std::size_t p = 0; p < P; ++p) {
        if (puts_issued[lvl][p] > 0) ++fences;
        if (puts_received[lvl][p] > 0) ++notifications;
        delta = std::max({delta, puts_issued[lvl][p], puts_received[lvl][p]});
      }
      if (fences + notifications > 0) {
        machine_.ledger().add_sync_ops(static_cast<simt::Level>(lvl),
                                       fences + notifications);
        stats_.fences += fences;
        stats_.notifications += notifications;
      }
      // König rounds per level under the point-to-point schedule; the
      // All-to-All collective is charged once below.
      if (transport == simt::Transport::kPointToPoint && delta > 0) {
        machine_.ledger().add_rounds(channel, static_cast<simt::Level>(lvl),
                                     delta);
      }
    }
    if (transport == simt::Transport::kAllToAll && P > 1) {
      // One machine-wide collective: its steps are charged to the slowest
      // level it touched (inter if any Put crossed nodes).
      bool any_inter = false;
      const std::size_t inter = static_cast<std::size_t>(simt::Level::kInter);
      for (std::size_t p = 0; p < P; ++p) {
        any_inter = any_inter || puts_issued[inter][p] > 0;
      }
      machine_.ledger().add_rounds(
          channel, any_inter ? simt::Level::kInter : simt::Level::kIntra,
          P - 1);
      machine_.ledger().add_modeled_collective_words((P - 1) *
                                                     max_pair_words);
    }
  }

  std::vector<std::vector<simt::Delivery>> inboxes(P);
  if (mode_ == Mode::kActiveMessage && handler_) {
    // Remote reduce: targets ascending, origins ascending within each
    // target (the registry sorted extents at the fence) — bitwise the
    // two-sided drivers' sender-sorted reduction order.
    for (std::size_t p = 0; p < P; ++p) {
      const double* base = registry_.window_data(p);
      for (const Extent& e : registry_.extents(p)) {
        handler_(p, e.from, base + e.offset, e.words);
        ++stats_.am_deliveries;
      }
    }
    return inboxes;
  }

  for (std::size_t p = 0; p < P; ++p) {
    double* base = registry_.window_data(p);
    for (const Extent& e : registry_.extents(p)) {
      inboxes[p].push_back(simt::Delivery{
          e.from, simt::PooledBuffer::attach_view(base + e.offset,
                                                  e.words)});
      ++stats_.view_deliveries;
    }
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
  out.set_counter(prefix + ".am_deliveries", stats_.am_deliveries);
  out.set_counter(prefix + ".view_deliveries", stats_.view_deliveries);
  out.set_counter(prefix + ".window_grows", registry_.stats().window_grows);
}

}  // namespace sttsv::onesided
