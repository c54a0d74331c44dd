#pragma once
// One-sided Exchanger backend (DESIGN.md §16): the third transport beside
// DirectExchange and ReliableExchange.
//
// Instead of mailbox envelopes, every payload is Put straight from the
// sender's pool slab into the destination's registered segment window —
// one copy, no mailbox hop, no per-pair framing round. A logical exchange
// is one access epoch on the SegmentRegistry:
//
//   begin (open_epoch) -> Puts -> fence (close_epoch)
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
// Delivery: after the fence, each target's inbox holds zero-copy
// PooledBuffer *views* into its window, origin-ascending — the order the
// mailbox path delivers in, so the drivers reduce y bitwise identically.
// Views stay valid until the next epoch opens; the drivers consume
// deliveries before starting another exchange, which the registry's
// epoch guard enforces.
//
// Not supported: wire fault injection (the model is a reliable RDMA
// fabric; install faults under Direct/Reliable instead). Dead ranks are
// honoured: Puts to or from a dead rank are dropped uncharged, mirroring
// Machine's membership semantics.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "onesided/segment_registry.hpp"
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
    std::uint64_t view_deliveries = 0;   ///< extents returned as views
  };

  explicit OneSidedExchange(simt::Machine& machine);

  /// One epoch: open, Put every envelope, fence, deliver views.
  std::vector<std::vector<simt::Delivery>> exchange(
      std::vector<std::vector<simt::Envelope>> outboxes,
      simt::Transport transport) override;

  [[nodiscard]] SegmentRegistry& registry() { return registry_; }
  [[nodiscard]] const SegmentRegistry& registry() const { return registry_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Publishes Stats plus the registry's counters into `out` as
  /// "<prefix>.*", set absolutely so re-export is idempotent.
  void publish_metrics(obs::MetricsRegistry& out,
                       const std::string& prefix = "onesided") const;

 private:
  SegmentRegistry registry_;
  Stats stats_;
};

}  // namespace sttsv::onesided
