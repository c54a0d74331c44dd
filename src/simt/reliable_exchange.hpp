#pragma once
// Resilient exchange protocol over the simulated machine (DESIGN.md §10).
//
// The raw machine exchange delivers whatever the (possibly faulty) wire
// produced. ReliableExchange layers a protocol on top that makes the
// delivered inboxes bitwise identical to a fault-free run:
//
//  * every data frame carries a header — magic word, per-ordered-pair
//    sequence number, payload length, payload checksum, header checksum;
//  * receivers validate frames, accept each sequence number at most once
//    (redelivery is idempotent), and answer with ACK/NACK frames that are
//    themselves checksummed (and themselves subject to wire faults);
//  * senders retransmit unacknowledged frames with exponential backoff,
//    up to a bounded number of attempts.
//
// Ledger accounting keeps the paper's Theorem 5.2 check meaningful under
// faults: each frame's payload is charged to the goodput channel exactly
// once (on the first attempt), while headers, ACKs, retransmissions and
// backoff rounds go to the overhead channel. Goodput therefore equals the
// fault-free ledger by construction; overhead is the measured price of
// resilience.
//
// When a frame exhausts the retry budget the policy decides: kFailFast
// throws FaultError carrying a structured FaultReport (never a hang or a
// silent wrong answer); kDegrade falls back on the owner-compute
// invariant — the sender still holds the payload (tensor blocks are never
// communicated, so every contribution is deterministically recomputable)
// and replays it over a clean out-of-band channel, charged as overhead.
//
// An opt-in liveness detector (DESIGN.md §15) distinguishes a dead *peer*
// from a flaky *link*: every attempt the protocol tracks which ranks it
// probed (endpoints of pending frames) and which it heard from (any
// delivery — data, ACK, even an undecodable frame proves the sender
// lives). A probed rank heard from resets its silence counter; one that
// stays silent accumulates. When the retry budget runs out and a silent
// counter has reached the policy bound, the peer is *suspected* dead;
// the machine's membership truth arbitrates the verdict (the simulator's
// stand-in for a cluster manager's out-of-band failure detector), since
// a dead peer's neighbours also go quiet once their only remaining
// traffic targets the corpse. A confirmed suspect turns the failure into
// "peer dead", not "link flaky": the ranks are marked dead on the Machine, a structured
// RankLossReport is filed there, and RankLossError is thrown — under
// either recovery policy, because a degraded replay cannot resurrect a
// dead owner. Rank-loss recovery proper (elastic shrink, redistribution)
// lives one layer up in src/elastic/.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "simt/machine.hpp"

namespace sttsv::obs {
class MetricsRegistry;
}  // namespace sttsv::obs

namespace sttsv::simt {

/// Seam between every algorithm and the wire, and the only way bytes
/// leave a rank: callers hand over outboxes and receive the logically
/// delivered inboxes. Exchanger is the machine's one friend, and its two
/// protected forwarders below are every backend's only way onto the
/// wire. DirectExchange forwards verbatim; ReliableExchange runs the
/// recovery protocol; the one-sided and hierarchical backends run the
/// machine's delivery walk and charge their own synchronization. Every
/// backend delivers owned buffers: a caller may keep a delivery across
/// later exchanges, and its slab returns to the sender's pool shard when
/// dropped.
class Exchanger {
 public:
  explicit Exchanger(Machine& machine) : machine_(machine) {}
  virtual ~Exchanger() = default;
  Exchanger(const Exchanger&) = delete;
  Exchanger& operator=(const Exchanger&) = delete;

  virtual std::vector<std::vector<Delivery>> exchange(
      std::vector<std::vector<Envelope>> outboxes, Transport transport) = 0;

  /// One logical exchange fed in parts. Each part() hands over a partial
  /// outbox set (every envelope exactly once across all parts); finish()
  /// ends the logical exchange and returns any deliveries deferred to it.
  /// Ledger totals are identical to one exchange() of the concatenated
  /// outboxes. No driver calls this seam — every Algorithm-5 phase is
  /// one exchange() (DESIGN.md §12) — it stays only because perfbench's
  /// TimingExchanger overrides it.
  class Parts {
   public:
    virtual ~Parts() = default;
    virtual std::vector<std::vector<Delivery>> part(
        std::vector<std::vector<Envelope>> outboxes) = 0;
    virtual std::vector<std::vector<Delivery>> finish() = 0;
  };

  /// Opens a multi-part logical exchange. The one implementation buffers
  /// every part and runs one exchange() at finish(), so every backend
  /// keeps its wire behaviour, sequence numbers and fault consumption
  /// bit-identical to a single exchange(). An abandoned Parts (destroyed
  /// unfinished) discards buffered traffic.
  [[nodiscard]] virtual std::unique_ptr<Parts> begin_parts(
      Transport transport);

  /// Labels subsequent exchanges for FaultReports; no-op by default.
  virtual void set_phase(const char* phase) { (void)phase; }

  /// Handler-delivery hooks: no backend runs a handler and no driver
  /// installs one, so every backend returns deliveries. Like Parts, they
  /// stay only because perfbench's TimingExchanger overrides them.
  using DeliveryHandler = std::function<void(
      std::size_t target, std::size_t from, const double* data,
      std::size_t words)>;
  [[nodiscard]] virtual bool supports_handler_delivery() const {
    return false;
  }
  virtual void set_delivery_handler(DeliveryHandler handler) {
    (void)handler;
  }

  [[nodiscard]] Machine& machine() const { return machine_; }

 protected:
  /// Machine::deliver: the delivery walk alone, priced by the caller.
  const WalkTally& deliver(std::vector<std::vector<Envelope>>& outboxes,
                           std::vector<std::vector<Delivery>>& inboxes,
                           Channel payload, FaultInjector* wire) {
    return machine_.deliver(outboxes, inboxes, payload, wire);
  }
  /// Machine::exchange_into: the mailbox walk and its rounds.
  void exchange_into(std::vector<std::vector<Envelope>>& outboxes,
                     std::vector<std::vector<Delivery>>& inboxes,
                     Transport transport) {
    machine_.exchange_into(outboxes, inboxes, transport);
  }

  Machine& machine_;
};

/// The identity protocol: raw machine semantics, zero overhead words.
class DirectExchange final : public Exchanger {
 public:
  using Exchanger::Exchanger;
  std::vector<std::vector<Delivery>> exchange(
      std::vector<std::vector<Envelope>> outboxes,
      Transport transport) override {
    std::vector<std::vector<Delivery>> inboxes;
    exchange_into(outboxes, inboxes, transport);
    return inboxes;
  }
};

/// Bounded retry with exponential backoff: attempt k >= 1 waits
/// min(backoff_cap_rounds, backoff_base_rounds << (k-1)) rounds before
/// retransmitting (charged as overhead rounds).
struct RetryPolicy {
  std::size_t max_attempts = 8;
  std::size_t backoff_base_rounds = 1;
  std::size_t backoff_cap_rounds = 64;
};

enum class RecoveryPolicy {
  kFailFast,  // throw FaultError once the retry budget is exhausted
  kDegrade,   // owner-compute replay over a clean channel, report attached
};

/// One frame that exhausted the retry budget.
struct FrameFault {
  std::size_t from = 0;
  std::size_t to = 0;
  std::uint64_t seq = 0;
  std::size_t payload_words = 0;
  std::size_t attempts = 0;
};

/// Structured account of a failed (or degraded) logical exchange: which
/// ranks, which phase, which protocol round, and where in the installed
/// FaultInjector's log the injected faults for this exchange live.
struct FaultReport {
  std::string phase;
  std::uint64_t exchange_index = 0;  // ordinal within this ReliableExchange
  std::size_t attempts_used = 0;
  bool degraded = false;
  std::vector<FrameFault> undelivered;
  std::vector<std::size_t> affected_ranks;  // sorted unique senders+receivers
  std::size_t injection_log_begin = 0;  // [begin, end) into injector log,
  std::size_t injection_log_end = 0;    // both 0 when no injector installed
};

class FaultError : public std::runtime_error {
 public:
  explicit FaultError(FaultReport report);
  [[nodiscard]] const FaultReport& report() const { return report_; }

 private:
  FaultReport report_;
};

/// Bounded failure detection (off by default so pure link-fault tests
/// keep their semantics). A probed peer silent for `suspect_after_attempts`
/// consecutive protocol attempts while the retry budget runs out is
/// declared dead rather than flaky.
struct LivenessPolicy {
  bool enabled = false;
  std::size_t suspect_after_attempts = 3;
};

/// The liveness verdict: undelivered frames whose peers stayed silent
/// past the policy bound. Derives from FaultError so callers that only
/// understand link faults still fail fast instead of hanging; recovery-
/// aware callers catch this type and trigger the elastic shrink. The
/// same RankLossReport is also filed on the Machine.
class RankLossError : public FaultError {
 public:
  RankLossError(FaultReport report, RankLossReport loss);
  [[nodiscard]] const RankLossReport& rank_loss() const { return loss_; }

 private:
  RankLossReport loss_;
};

class ReliableExchange final : public Exchanger {
 public:
  struct Stats {
    std::uint64_t exchanges = 0;
    std::uint64_t data_frames = 0;
    std::uint64_t retransmitted_frames = 0;
    std::uint64_t ack_frames = 0;
    std::uint64_t nack_entries = 0;
    std::uint64_t corrupt_frames_detected = 0;
    std::uint64_t duplicate_frames_ignored = 0;
    std::uint64_t degraded_deliveries = 0;
    std::uint64_t backoff_rounds = 0;
    std::uint64_t rank_loss_verdicts = 0;
  };

  explicit ReliableExchange(Machine& machine, RetryPolicy retry = {},
                            RecoveryPolicy recovery = RecoveryPolicy::kFailFast,
                            LivenessPolicy liveness = {});

  /// Runs the protocol until every frame is delivered exactly once, then
  /// returns inboxes bitwise identical to a fault-free DirectExchange
  /// of the same outboxes. Throws FaultError (kFailFast) or degrades
  /// (kDegrade, see reports()) when the retry budget runs out.
  std::vector<std::vector<Delivery>> exchange(
      std::vector<std::vector<Envelope>> outboxes,
      Transport transport) override;

  void set_phase(const char* phase) override { phase_ = phase; }

  [[nodiscard]] const RetryPolicy& retry_policy() const { return retry_; }
  [[nodiscard]] RecoveryPolicy recovery_policy() const { return recovery_; }
  [[nodiscard]] const LivenessPolicy& liveness_policy() const {
    return liveness_;
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// One report per degraded logical exchange (kDegrade only; kFailFast
  /// reports travel inside the thrown FaultError).
  [[nodiscard]] const std::vector<FaultReport>& reports() const {
    return reports_;
  }

  /// Publishes Stats (plus the degraded-report count) into `out` as
  /// "<prefix>.*" counters, set absolutely so re-export is idempotent.
  void publish_metrics(obs::MetricsRegistry& out,
                       const std::string& prefix = "rex") const;

 private:
  /// One logical frame of an exchange. The exchange's frames sit in one
  /// table in (sender, destination, sequence) order with consecutive
  /// sequence numbers per pair, so that order is the index for ACK
  /// settlement, duplicate detection and inbox assembly.
  struct PendingFrame {
    std::size_t from = 0;
    std::size_t to = 0;
    std::uint64_t seq = 0;
    PooledBuffer payload;    // the sender's copy, kept for retransmission
    PooledBuffer delivered;  // the receiver's accepted copy
    bool acked = false;
    bool accepted = false;
    std::size_t attempts = 0;
  };

  /// The report over this exchange's frames whose `done` flag is unset:
  /// phase, exchange index, `attempts_used`, each frame's fault, the
  /// sorted unique affected ranks, and the injection-log window from
  /// `log_begin` to now.
  [[nodiscard]] FaultReport fault_report(bool PendingFrame::*done,
                                         std::size_t attempts_used,
                                         std::size_t log_begin) const;

  RetryPolicy retry_;
  RecoveryPolicy recovery_;
  LivenessPolicy liveness_;
  std::string phase_ = "unlabeled";
  std::uint64_t exchange_counter_ = 0;
  // Next sequence number per ordered rank pair (row-major P x P, indexed
  // from * P + to), monotone over the session.
  std::vector<std::uint64_t> next_seq_;
  Stats stats_;
  std::vector<FaultReport> reports_;

  // Per-exchange bookkeeping, kept across exchanges so a warmed exchange
  // allocates only the inboxes it returns. Sized from P at construction;
  // every exit from exchange() empties the frame table and the boxes, so
  // each slab goes back to its pool shard when the exchange ends.
  std::vector<PendingFrame> frames_;
  // Sender s owns frames_[sender_begin_[s], sender_begin_[s + 1]).
  std::vector<std::size_t> sender_begin_;
  // Liveness evidence per rank: consecutive silent attempts, and whether
  // the current attempt probed it or heard from it.
  std::vector<std::size_t> silent_;
  std::vector<char> probed_;
  std::vector<char> heard_;
  // Frames accepted per receiver, to reserve each returned inbox once.
  std::vector<std::size_t> accepted_;
  // One receiver's (sender, ACK entry word) scratch.
  std::vector<std::pair<std::size_t, std::uint64_t>> ack_words_;
  // Table indices of the frames still unacknowledged.
  std::vector<std::size_t> unacked_;
  // The wire and ACK trips' outbox and inbox sets.
  std::vector<std::vector<Envelope>> wire_out_;
  std::vector<std::vector<Delivery>> wire_in_;
  std::vector<std::vector<Envelope>> ack_out_;
  std::vector<std::vector<Delivery>> ack_in_;
};

}  // namespace sttsv::simt
