#pragma once
// Topology-aware Exchanger (DESIGN.md §17): the hierarchical transport.
//
// Every envelope is classified by the Topology: node-local traffic takes
// the shared-memory fast path, cross-node traffic rides an inner
// Exchanger (Direct, Reliable, or OneSided — whatever the caller picked
// for the fabric). The split is invisible to the drivers: deliveries
// come back merged per target, origin-ascending, exactly as the flat
// backends hand them over, and the sender-sorted reduction of the
// drivers makes y bitwise identical to a flat DirectExchange run.
//
// The intra-node path is the simulator's PSHM: peers on one node share
// an address space, so a node-local transfer is an ownership hand-off of
// the sender's pool slab to the target (zero copies; the receiver owns
// the delivery like a fabric one), followed by one exposure fence per
// *node* per epoch. That is the α-term win the per-level ledger makes
// visible: N fences instead of one envelope per communicating pair.
// The hand-offs are the machine's delivery walk without the fault
// injector: it charges every intra payload to the onesided channel at
// the intra level (recovery-flagged envelopes to the recovery channel)
// and drops traffic to or from a dead rank uncharged, so total payload
// words match the flat run to the word while the *inter-node* words
// shrink to exactly what the composed partition predicts.
//
// Rounds: the intra hand-off of an epoch is one parallel step of each
// node's crossbar — charged as a single intra-level round; the inner
// backend charges its own inter-level rounds through the machinery it
// already has (the per-level ledger classifies them by endpoints). The
// hand-offs, their fences and their round are charged before the fabric
// runs, so they stay charged when it throws.
//
// Limits, by design: no wire fault injection on the intra path (a node's
// shared memory does not drop words; install faults under an inner
// Reliable backend to exercise the fabric).

#include <memory>
#include <vector>

#include "hier/topology.hpp"
#include "simt/reliable_exchange.hpp"

namespace sttsv::hier {

class HierarchicalExchange final : public simt::Exchanger {
 public:
  /// Wires the topology into the machine's ledger (set_node_map — the
  /// machine must not have recorded traffic yet) and takes ownership of
  /// the inner backend carrying inter-node traffic. The inner exchanger
  /// must wrap the same machine; the topology must cover its ranks.
  HierarchicalExchange(simt::Machine& machine, Topology topology,
                       std::unique_ptr<simt::Exchanger> inter);

  /// One epoch: route every envelope by level, hand the node-local ones
  /// to their targets, fence, then run the inner exchange, and return the
  /// merged (origin-ascending) inboxes. Intra deliveries are the senders'
  /// slabs themselves, owned by the receiver like the fabric's.
  std::vector<std::vector<simt::Delivery>> exchange(
      std::vector<std::vector<simt::Envelope>> outboxes,
      simt::Transport transport) override;

  void set_phase(const char* phase) override;

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] simt::Exchanger& inter() { return *inter_; }

 private:
  Topology topo_;
  std::unique_ptr<simt::Exchanger> inter_;
};

}  // namespace sttsv::hier
