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
// Delivery modes:
//
//  * Mode::kPut — after the fence, each target's inbox holds zero-copy
//    PooledBuffer *views* into its window, origin-ascending. Views stay
//    valid until the next epoch opens; the drivers consume deliveries
//    before starting another exchange, which the registry's epoch guard
//    enforces.
//  * Mode::kActiveMessage — a registered DeliveryHandler runs the
//    reduction at the target (targets ascending, then origins ascending,
//    multiple puts per origin in posting order). That is exactly the
//    sender-sorted order the two-sided drivers reduce in, so y stays
//    bitwise identical. With no handler installed the mode degrades to
//    view deliveries (the x-gather phase needs none).
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

enum class Mode {
  kPut,            // zero-copy view deliveries after the fence
  kActiveMessage,  // remote-reduce handler at the target
};

class OneSidedExchange final : public simt::Exchanger {
 public:
  struct Stats {
    std::uint64_t epochs = 0;            ///< settled logical exchanges
    std::uint64_t puts = 0;              ///< one-sided writes issued
    std::uint64_t put_words = 0;         ///< payload words written
    std::uint64_t fences = 0;            ///< origin-side epoch fences
    std::uint64_t notifications = 0;     ///< target-side exposure notices
    std::uint64_t am_deliveries = 0;     ///< extents fed to the handler
    std::uint64_t view_deliveries = 0;   ///< extents returned as views
  };

  explicit OneSidedExchange(simt::Machine& machine, Mode mode = Mode::kPut);

  /// One epoch: open, Put every envelope, fence, deliver (views or
  /// handler runs). Inboxes are empty in active-message mode once a
  /// handler is installed.
  std::vector<std::vector<simt::Delivery>> exchange(
      std::vector<std::vector<simt::Envelope>> outboxes,
      simt::Transport transport) override;

  void set_phase(const char* phase) override { phase_ = phase; }

  [[nodiscard]] bool supports_handler_delivery() const override {
    return mode_ == Mode::kActiveMessage;
  }
  void set_delivery_handler(DeliveryHandler handler) override {
    handler_ = std::move(handler);
  }

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] SegmentRegistry& registry() { return registry_; }
  [[nodiscard]] const SegmentRegistry& registry() const { return registry_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Publishes Stats plus the registry's counters into `out` as
  /// "<prefix>.*", set absolutely so re-export is idempotent.
  void publish_metrics(obs::MetricsRegistry& out,
                       const std::string& prefix = "onesided") const;

 private:
  Mode mode_;
  SegmentRegistry registry_;
  DeliveryHandler handler_;
  const char* phase_ = "unlabeled";
  Stats stats_;
};

}  // namespace sttsv::onesided
