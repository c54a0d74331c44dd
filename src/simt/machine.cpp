#include "simt/machine.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "simt/fault_injector.hpp"
#include "simt/parallel_for.hpp"
#include "support/check.hpp"

namespace sttsv::simt {

void sort_by_destination(std::vector<Envelope>& outbox) {
  const auto by_destination = [](const Envelope& a, const Envelope& b) {
    return a.to < b.to;
  };
  if (!std::is_sorted(outbox.begin(), outbox.end(), by_destination)) {
    std::stable_sort(outbox.begin(), outbox.end(), by_destination);
  }
}

void charge_rounds(CommLedger& ledger, Channel channel, Transport transport,
                   const LevelCounts& sends, const LevelCounts& recvs,
                   std::size_t max_pair_words) {
  const std::size_t P = sends[0].size();
  switch (transport) {
    case Transport::kPointToPoint:
      // König: a bipartite multigraph with max degree Δ is Δ-edge-
      // colorable, so each level's frames complete in its own Δ steps. A
      // flat machine puts every frame on kIntra.
      for (std::size_t lvl = 0; lvl < kNumLevels; ++lvl) {
        std::size_t delta = 0;
        for (std::size_t p = 0; p < P; ++p) {
          delta = std::max({delta, sends[lvl][p], recvs[lvl][p]});
        }
        if (delta > 0) {
          ledger.add_rounds(channel, static_cast<Level>(lvl), delta);
        }
      }
      break;
    case Transport::kAllToAll:
      // Bandwidth-optimal All-to-All: P-1 steps, empty slots included.
      if (P > 1) {
        const auto& inter = sends[static_cast<std::size_t>(Level::kInter)];
        const bool any_inter = std::any_of(
            inter.begin(), inter.end(), [](std::size_t k) { return k > 0; });
        ledger.add_rounds(channel, any_inter ? Level::kInter : Level::kIntra,
                          P - 1);
        ledger.add_modeled_collective_words((P - 1) * max_pair_words);
      }
      break;
  }
}

Machine::Machine(std::size_t num_ranks)
    : P_(num_ranks),
      ledger_(num_ranks),
      pool_(num_ranks == 0 ? 1 : num_ranks),
      dead_flags_(num_ranks, 0),
      num_alive_(num_ranks),
      inbound_(num_ranks, 0) {
  STTSV_REQUIRE(num_ranks >= 1, "machine needs at least one rank");
  for (auto& level : sends_per_rank_) level.assign(num_ranks, 0);
  for (auto& level : recvs_per_rank_) level.assign(num_ranks, 0);
}

void Machine::mark_dead(std::size_t rank) {
  STTSV_REQUIRE(rank < P_, "rank out of range");
  if (dead_flags_[rank] != 0) return;
  STTSV_REQUIRE(num_alive_ > 1, "cannot kill the last live rank");
  dead_flags_[rank] = 1;
  --num_alive_;
  ++membership_epoch_;
}

std::vector<std::size_t> Machine::dead_ranks() const {
  std::vector<std::size_t> dead;
  for (std::size_t p = 0; p < P_; ++p) {
    if (dead_flags_[p] != 0) dead.push_back(p);
  }
  return dead;
}

void Machine::record_rank_loss(RankLossReport report) {
  rank_loss_reports_.push_back(std::move(report));
}

void Machine::exchange_into(std::vector<std::vector<Envelope>>& outboxes,
                            std::vector<std::vector<Delivery>>& inboxes,
                            Transport transport) {
  // The span's category is settled below: an exchange moving no goodput
  // is pure protocol traffic and lands on the overhead channel (kRetry)
  // in any exported trace.
  obs::Span span("machine.exchange", obs::Category::kExchange);
  STTSV_REQUIRE(outboxes.size() == P_, "one outbox per rank required");

  // Validate every envelope before touching the ledger or moving any
  // payload: a malformed outbox must fail with the machine state intact.
  std::fill(inbound_.begin(), inbound_.end(), 0);
  for (std::size_t from = 0; from < P_; ++from) {
    for (const Envelope& env : outboxes[from]) {
      STTSV_REQUIRE(env.to < P_, "envelope destination out of range");
      STTSV_REQUIRE(env.to != from,
                    "self-sends must be handled as local copies");
      STTSV_REQUIRE(env.overhead_words <= env.data.size(),
                    "envelope overhead exceeds payload size");
      STTSV_REQUIRE(!env.recovery || env.overhead_words == 0,
                    "recovery envelopes carry no protocol overhead");
      ++inbound_[env.to];
    }
  }

  if (injector_ != nullptr) {
    // One injector epoch per exchange: stall rolls and the injection-log
    // window cover the whole exchange.
    injector_->begin_exchange();
    // Sync injector-rolled crashes into machine membership. Deaths rolled
    // mid-exchange by on_frame are picked up here at the next exchange:
    // death is detected at exchange granularity (interim frames are still
    // dropped by the injector's own is_dead check).
    for (const std::size_t r : injector_->dead_ranks()) mark_dead(r);
  }

  inboxes.resize(P_);
  for (std::size_t p = 0; p < P_; ++p) {
    inboxes[p].clear();
    inboxes[p].reserve(inbound_[p]);
  }
  // Per-level König degrees (DESIGN.md §17): the intra networks of the
  // nodes and the inter-node network schedule independently, so each
  // level gets its own Δ. On a flat machine everything lands on kIntra
  // and the totals match the historical single-level charge.
  for (auto& level : sends_per_rank_) std::fill(level.begin(), level.end(), 0);
  for (auto& level : recvs_per_rank_) std::fill(level.begin(), level.end(), 0);
  std::size_t max_pair_words = 0;
  std::size_t total_goodput = 0;
  std::size_t total_overhead = 0;
  std::size_t total_recovery = 0;

  // Round slots accumulate per level: the frame occupies a step of its
  // own network (node-local crossbar or inter-node fabric).
  const auto count_slot = [&](std::size_t from, std::size_t to) {
    const auto lvl = static_cast<std::size_t>(ledger_.level_of(from, to));
    ++sends_per_rank_[lvl][from];
    ++recvs_per_rank_[lvl][to];
  };

  for (std::size_t from = 0; from < P_; ++from) {
    // Deterministic delivery order: by destination, then insertion order.
    sort_by_destination(outboxes[from]);
    for (auto& env : outboxes[from]) {
      // Dead endpoints: the frame silently vanishes, charging nothing and
      // holding no round slot. Skipping both the send and the receive
      // side together preserves ledger conservation (record() increments
      // sender and receiver atomically). This sits below the injector, so
      // a degraded replay with the injector detached still cannot reach a
      // dead peer.
      if (dead_flags_[from] != 0 || dead_flags_[env.to] != 0) continue;
      // A recovery envelope is all payload on the recovery channel and is
      // charged even when empty; a data envelope splits its goodput from
      // its protocol framing and charges only the nonempty parts. An
      // injected duplicate is charged whole to the envelope's extra
      // traffic channel: recovery, or overhead for data.
      const Channel payload_channel =
          env.recovery ? Channel::kRecovery : Channel::kGoodput;
      const Channel duplicate_channel =
          env.recovery ? Channel::kRecovery : Channel::kOverhead;
      const std::size_t payload = env.data.size() - env.overhead_words;
      if (payload > 0 || env.recovery) {
        ledger_.record(payload_channel, from, env.to, payload);
      }
      if (env.overhead_words > 0) {
        ledger_.record(Channel::kOverhead, from, env.to, env.overhead_words);
      }
      (env.recovery ? total_recovery : total_goodput) += payload;
      total_overhead += env.overhead_words;
      max_pair_words = std::max(max_pair_words, env.data.size());
      // Rounds reflect the intended schedule: a dropped frame still held
      // its slot, an injected duplicate rides along without one.
      count_slot(from, env.to);

      if (injector_ != nullptr) {
        switch (injector_->on_frame(from, env.to, env.data)) {
          case FaultInjector::Action::kDrop:
            continue;  // charged, never delivered
          case FaultInjector::Action::kDuplicate:
            ledger_.record(duplicate_channel, from, env.to, env.data.size());
            inboxes[env.to].push_back(Delivery{from, env.data.clone()});
            break;
          case FaultInjector::Action::kDeliver:
            break;
        }
      }
      inboxes[env.to].push_back(Delivery{from, std::move(env.data)});
    }
  }
  // Senders were walked ascending, so every inbox is already sorted by
  // sender.
  STTSV_DCHECK(std::all_of(inboxes.begin(), inboxes.end(),
                           [](const std::vector<Delivery>& inbox) {
                             return std::is_sorted(
                                 inbox.begin(), inbox.end(),
                                 [](const Delivery& a, const Delivery& b) {
                                   return a.from < b.from;
                                 });
                           }),
               "inbox out of sender order");
  if (injector_ != nullptr) {
    for (std::size_t p = 0; p < P_; ++p) {
      injector_->maybe_reorder(p, inboxes[p]);
    }
  }
  // What was not delivered (dropped, or to or from a dead rank) goes back
  // to its pool shard here, as when the outboxes were a by-value argument.
  for (auto& outbox : outboxes) outbox.clear();

  // Round classification follows the dominant channel: an exchange that
  // moves goodput is an algorithm step; one that moves only recovery
  // traffic is a redistribution step; one that moves only protocol
  // overhead (ACK rounds, retransmissions) is resilience overhead.
  const bool goodput_rounds = total_goodput > 0;
  const bool recovery_rounds = !goodput_rounds && total_recovery > 0;
  const bool overhead_only =
      !goodput_rounds && !recovery_rounds && total_overhead > 0;
  span.set_arg(total_goodput + total_overhead + total_recovery);
  if (recovery_rounds) span.set_category(obs::Category::kRecovery);
  if (overhead_only) span.set_category(obs::Category::kRetry);
  const Channel round_channel = recovery_rounds ? Channel::kRecovery
                                : overhead_only ? Channel::kOverhead
                                                : Channel::kGoodput;
  charge_rounds(ledger_, round_channel, transport, sends_per_rank_,
                recvs_per_rank_, max_pair_words);
}

void Machine::run_ranks(const std::function<void(std::size_t)>& body) const {
  obs::Span step("machine.run_ranks", obs::Category::kSuperstep, P_);
  parallel_for(P_, [&body](std::size_t p) {
    // Attribute everything the rank program records — including the
    // kernel spans below it — to rank p's track.
    obs::ScopedRank as_rank(p);
    obs::Span compute("rank.compute", obs::Category::kSuperstep, p);
    body(p);
  });
}

void Machine::run_ranks(const std::vector<std::size_t>& ranks,
                        const std::function<void(std::size_t)>& body) const {
  obs::Span step("machine.run_ranks", obs::Category::kSuperstep, ranks.size());
  parallel_for(ranks.size(), [&body, &ranks](std::size_t i) {
    const std::size_t p = ranks[i];
    obs::ScopedRank as_rank(p);
    obs::Span compute("rank.compute", obs::Category::kSuperstep, p);
    body(p);
  });
}

void Machine::first_touch() {
  run_ranks([this](std::size_t p) { pool_.touch(p); });
}

void Machine::reset_ledger() {
  std::vector<std::uint32_t> node_map = ledger_.node_map();
  ledger_ = CommLedger(P_);
  if (!node_map.empty()) ledger_.set_node_map(std::move(node_map));
}

}  // namespace sttsv::simt
