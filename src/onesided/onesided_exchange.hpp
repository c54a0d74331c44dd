#pragma once
// One-sided Exchanger backend (DESIGN.md §16): the third transport beside
// DirectExchange and ReliableExchange.
//
// Instead of mailbox envelopes, every payload is a Put: the sender's pool
// slab is handed to the destination whole — no copy, no mailbox hop, no
// per-pair framing round. A logical exchange is one access epoch: every
// Put, then the fence that exposes them to their targets.
//
// The Puts are the machine's delivery walk without the fault injector,
// charging payload words to the ledger's onesided channel (recovery-
// flagged envelopes to the recovery channel, so elastic redistribution
// stays checkable to the word) and dropping traffic to or from a dead
// rank uncharged. Puts pay bandwidth only; the α-term is the per-epoch
// synchronization — one fence per origin that issued a Put plus one
// exposure notification per target that received one, per level — which
// this backend counts with CommLedger::add_sync_ops from the walk's
// tally. Rounds follow the same König/All-to-All schedule as the
// two-sided path, charged to the onesided channel. Because sync ops scale
// with |active ranks| while Direct's envelope count scales with |active
// pairs|, the one-sided "message count" (puts excluded, sync ops counted)
// drops below Direct whenever ranks talk to more than one peer — the
// quantity bench_transport sweeps.
//
// Delivery: after the fence, each target's inbox holds the Put buffers
// themselves, origin-ascending and in posting order within an origin —
// the order the mailbox path delivers in, so the drivers reduce y
// bitwise identically. Like every backend's, a delivery is owned: it
// outlives later exchanges, and its slab returns to the sender's pool
// shard when the receiver drops it.
//
// Not supported: wire fault injection (the model is a reliable RDMA
// fabric; install faults under Direct/Reliable instead).

#include <vector>

#include "simt/reliable_exchange.hpp"

namespace sttsv::onesided {

class OneSidedExchange final : public simt::Exchanger {
 public:
  explicit OneSidedExchange(simt::Machine& machine);

  /// One epoch: Put every envelope into its target's inbox, then fence.
  std::vector<std::vector<simt::Delivery>> exchange(
      std::vector<std::vector<simt::Envelope>> outboxes,
      simt::Transport transport) override;
};

}  // namespace sttsv::onesided
