#pragma once
// One-sided Exchanger backend (DESIGN.md §16): the third transport beside
// DirectExchange and ReliableExchange.
//
// Instead of mailbox envelopes, every payload is a Put: the sender's pool
// slab is handed to the destination whole — no copy, no mailbox hop, no
// per-pair framing round. A logical exchange is one access epoch: every
// Put, then the fence that exposes them to their targets.
//
// Accounting (CommLedger, DESIGN.md §16): every Put's payload words go to
// the ledger's onesided channel (recovery-flagged envelopes to the
// recovery channel, so elastic redistribution stays checkable to the
// word). Puts pay bandwidth only; the α-term is the per-epoch
// synchronization — one fence per origin that issued a Put plus one
// exposure notification per target that received one — counted by
// CommLedger::add_sync_ops. Rounds follow the same König/All-to-All
// schedule as the two-sided path, charged to the onesided channel.
// Because sync ops scale with |active ranks| while Direct's envelope
// count scales with |active pairs|, the one-sided "message count"
// (puts excluded, sync ops counted) drops below Direct whenever ranks
// talk to more than one peer — the quantity bench_transport sweeps.
//
// Delivery: after the fence, each target's inbox holds the Put buffers
// themselves, origin-ascending and in posting order within an origin —
// the order the mailbox path delivers in, so the drivers reduce y
// bitwise identically. Like every backend's, a delivery is owned: it
// outlives later exchanges, and its slab returns to the sender's pool
// shard when the receiver drops it.
//
// Not supported: wire fault injection (the model is a reliable RDMA
// fabric; install faults under Direct/Reliable instead). Dead ranks are
// honoured: Puts to or from a dead rank are dropped uncharged, mirroring
// Machine's membership semantics.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "simt/reliable_exchange.hpp"

namespace sttsv::obs {
class MetricsRegistry;
}  // namespace sttsv::obs

namespace sttsv::onesided {

class OneSidedExchange final : public simt::Exchanger {
 public:
  struct Stats {
    std::uint64_t epochs = 0;            ///< settled logical exchanges
    std::uint64_t puts = 0;              ///< one-sided writes issued
    std::uint64_t put_words = 0;         ///< payload words written
    std::uint64_t fences = 0;            ///< origin-side epoch fences
    std::uint64_t notifications = 0;     ///< target-side exposure notices
  };

  explicit OneSidedExchange(simt::Machine& machine);

  /// One epoch: Put every envelope into its target's inbox, then fence.
  std::vector<std::vector<simt::Delivery>> exchange(
      std::vector<std::vector<simt::Envelope>> outboxes,
      simt::Transport transport) override;

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Publishes Stats into `out` as "<prefix>.*", set absolutely so
  /// re-export is idempotent.
  void publish_metrics(obs::MetricsRegistry& out,
                       const std::string& prefix = "onesided") const;

 private:
  Stats stats_;
};

}  // namespace sttsv::onesided
