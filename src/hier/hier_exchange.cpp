#include "hier/hier_exchange.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace sttsv::hier {

using simt::Delivery;
using simt::Envelope;

namespace {

/// Merges the node-local deliveries into the inner inboxes,
/// origin-ascending per target (both inputs arrive origin-sorted).
std::vector<std::vector<Delivery>> merge_deliveries(
    std::vector<std::vector<Delivery>> intra_inboxes,
    std::vector<std::vector<Delivery>> inter_inboxes) {
  const std::size_t P = intra_inboxes.size();
  STTSV_CHECK(inter_inboxes.size() == P,
              "inner backend must return one inbox per rank");
  std::vector<std::vector<Delivery>> merged(P);
  for (std::size_t p = 0; p < P; ++p) {
    auto& intra = intra_inboxes[p];
    auto& inter = inter_inboxes[p];
    merged[p].reserve(intra.size() + inter.size());
    // Both inputs arrive origin-sorted, and a given origin is exactly one
    // level away from p, so origins never tie across the two lists.
    std::size_t si = 0;
    std::size_t ii = 0;
    while (si < intra.size() || ii < inter.size()) {
      const bool take_intra =
          ii == inter.size() ||
          (si < intra.size() && intra[si].from < inter[ii].from);
      merged[p].push_back(std::move(take_intra ? intra[si++] : inter[ii++]));
    }
  }
  return merged;
}

}  // namespace

HierarchicalExchange::HierarchicalExchange(
    simt::Machine& machine, Topology topology,
    std::unique_ptr<simt::Exchanger> inter)
    : Exchanger(machine),
      topo_(std::move(topology)),
      inter_(std::move(inter)) {
  STTSV_REQUIRE(inter_ != nullptr,
                "hierarchical transport needs an inner backend");
  STTSV_REQUIRE(&inter_->machine() == &machine,
                "inner backend must wrap the same machine");
  STTSV_REQUIRE(topo_.num_ranks() == machine.num_ranks(),
                "topology must cover every machine rank");
  machine.ledger().set_node_map(topo_.node_map());
}

void HierarchicalExchange::set_phase(const char* phase) {
  inter_->set_phase(phase);
}

std::vector<std::vector<Delivery>> HierarchicalExchange::exchange(
    std::vector<std::vector<Envelope>> outboxes, simt::Transport transport) {
  obs::Span span("hier.epoch", obs::Category::kExchange);
  const std::size_t P = machine_.num_ranks();
  STTSV_REQUIRE(outboxes.size() == P,
                "outboxes must cover every rank exactly once");
  // Validate every envelope before the first hand-off, so a precondition
  // failure leaves the ledger untouched.
  for (std::size_t from = 0; from < P; ++from) {
    for (const Envelope& env : outboxes[from]) {
      STTSV_REQUIRE(env.to < P, "envelope destination out of range");
      STTSV_REQUIRE(env.to != from,
                    "self-messages are local copies, not comm");
      if (topo_.same_node(from, env.to)) {
        STTSV_REQUIRE(env.overhead_words == 0,
                      "shared-segment transfers carry no protocol framing");
        STTSV_REQUIRE(!env.data.empty(),
                      "shared-segment transfers need a payload");
      }
    }
  }

  // Intra envelopes go to their targets (and on the ledger) right away,
  // origins ascending, so each target's list is origin-sorted; inter
  // envelopes are collected for the inner backend.
  std::vector<std::vector<Delivery>> intra_in(P);
  std::vector<char> node_touched(topo_.num_nodes(), 0);
  std::uint64_t onesided_words = 0;
  std::uint64_t recovery_words = 0;
  std::vector<std::vector<Envelope>> inter_out(P);
  for (std::size_t from = 0; from < P; ++from) {
    for (Envelope& env : outboxes[from]) {
      if (!topo_.same_node(from, env.to)) {
        stats_.inter_words += env.data.size() - env.overhead_words;
        ++stats_.inter_envelopes;
        inter_out[from].push_back(std::move(env));
        continue;
      }
      // Membership truth mirrors Machine: traffic touching a dead rank
      // is dropped uncharged — shared memory or not, a corpse neither
      // posts nor fences.
      if (!machine_.alive(from) || !machine_.alive(env.to)) continue;
      const std::size_t words = env.data.size();
      const simt::Channel channel = env.recovery ? simt::Channel::kRecovery
                                                 : simt::Channel::kOneSided;
      machine_.ledger().record(channel, from, env.to, words);
      if (env.recovery) {
        recovery_words += words;
      } else {
        onesided_words += words;
      }
      node_touched[topo_.node_of(from)] = 1;
      ++stats_.shared_puts;
      stats_.shared_words += words;
      intra_in[env.to].push_back(Delivery{from, std::move(env.data)});
    }
  }

  // Fences the node-local hand-offs: one sync op per touched node, one
  // intra round for the epoch's hand-off step.
  const auto settle_intra = [&]() {
    ++stats_.epochs;
    std::size_t fences = 0;
    for (const char touched : node_touched) {
      if (touched != 0) ++fences;
    }
    if (fences == 0) return;
    // The whole α-term of the intra path: one exposure fence per node
    // that moved anything, regardless of how many pairs inside it
    // communicated.
    machine_.ledger().add_sync_ops(simt::Level::kIntra, fences);
    stats_.node_fences += fences;
    // The hand-off itself is one parallel step of each node's crossbar.
    const simt::Channel channel = onesided_words > 0
                                      ? simt::Channel::kOneSided
                                      : simt::Channel::kRecovery;
    machine_.ledger().add_rounds(channel, simt::Level::kIntra, 1);
  };
  std::vector<std::vector<Delivery>> inter_in;
  try {
    inter_in = inter_->exchange(std::move(inter_out), transport);
  } catch (...) {
    // The fabric failed mid-exchange; the intra epoch still settles its
    // accounting (those hand-offs happened) before the fault propagates.
    settle_intra();
    throw;
  }
  settle_intra();
  span.set_arg(onesided_words + recovery_words);
  return merge_deliveries(std::move(intra_in), std::move(inter_in));
}

void HierarchicalExchange::publish_metrics(obs::MetricsRegistry& out,
                                           const std::string& prefix) const {
  out.set_counter(prefix + ".epochs", stats_.epochs);
  out.set_counter(prefix + ".shared_puts", stats_.shared_puts);
  out.set_counter(prefix + ".shared_words", stats_.shared_words);
  out.set_counter(prefix + ".node_fences", stats_.node_fences);
  out.set_counter(prefix + ".inter_envelopes", stats_.inter_envelopes);
  out.set_counter(prefix + ".inter_words", stats_.inter_words);
  out.set_counter(prefix + ".num_nodes", topo_.num_nodes());
}

}  // namespace sttsv::hier
