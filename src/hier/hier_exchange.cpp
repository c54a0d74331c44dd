#include "hier/hier_exchange.hpp"

#include <algorithm>
#include <utility>

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
  // Route by level, checking every envelope before the first hand-off so
  // a precondition failure leaves the ledger untouched.
  std::vector<std::vector<Envelope>> shared_out(P);
  std::vector<std::vector<Envelope>> fabric_out(P);
  for (std::size_t from = 0; from < P; ++from) {
    for (Envelope& env : outboxes[from]) {
      STTSV_REQUIRE(env.to < P, "envelope destination out of range");
      const bool shared = topo_.same_node(from, env.to);
      if (shared) {
        STTSV_REQUIRE(env.overhead_words == 0,
                      "shared-segment transfers carry no protocol framing");
        STTSV_REQUIRE(!env.data.empty(),
                      "shared-segment transfers need a payload");
      }
      (shared ? shared_out : fabric_out)[from].push_back(std::move(env));
    }
  }

  // The node-local hand-offs, then their fence: one sync op per node that
  // moved anything, regardless of how many pairs inside it communicated,
  // and one intra round, the hand-off step of each node's crossbar.
  std::vector<std::vector<Delivery>> shared_in;
  const simt::WalkTally& tally =
      deliver(shared_out, shared_in, simt::Channel::kOneSided, nullptr);
  const auto& intra_sends =
      tally.sends[static_cast<std::size_t>(simt::Level::kIntra)];
  std::vector<char> node_fenced(topo_.num_nodes(), 0);
  for (std::size_t p = 0; p < P; ++p) {
    if (intra_sends[p] > 0) node_fenced[topo_.node_of(p)] = 1;
  }
  const auto fences = static_cast<std::size_t>(
      std::count(node_fenced.begin(), node_fenced.end(), 1));
  const std::size_t onesided_words =
      tally.words[static_cast<std::size_t>(simt::Channel::kOneSided)];
  span.set_arg(onesided_words +
               tally.words[static_cast<std::size_t>(simt::Channel::kRecovery)]);
  if (fences > 0) {
    machine_.ledger().add_sync_ops(simt::Level::kIntra, fences);
    machine_.ledger().add_rounds(onesided_words > 0 ? simt::Channel::kOneSided
                                                    : simt::Channel::kRecovery,
                                 simt::Level::kIntra, 1);
  }

  return merge_deliveries(std::move(shared_in),
                          inter_->exchange(std::move(fabric_out), transport));
}

}  // namespace sttsv::hier
