#pragma once
// Seeded, deterministic network-fault model for the simulated machine
// (DESIGN.md §10). When installed on a Machine, every wire frame of every
// exchange passes through the injector, which may
//
//  * drop the frame (it is charged to the ledger but never delivered),
//  * corrupt it (flip one bit of one payload/header word in flight),
//  * duplicate it (deliver a second copy, charged as overhead),
//  * stall a rank (straggler model: every frame the rank sends in the
//    current exchange misses the round and is lost),
//  * reorder an inbox (permute the deterministic by-sender delivery
//    order), or
//  * crash a rank (permanent: from its crash exchange on, every frame the
//    rank sends or should receive silently vanishes — the fail-stop model,
//    distinct from the transient stall). Crashes can be scheduled at an
//    exact exchange index for replayable property tests, or rolled
//    probabilistically per rank per exchange.
//
// All decisions come from one seeded xoshiro stream consumed in the
// machine's deterministic iteration order, so a (seed, config, traffic)
// triple always produces the identical fault pattern — the injection log
// records every event for replay and for FaultReport references.
//
// The raw machine exchange makes no attempt to hide these faults; the
// recovery protocol lives one layer up in simt::ReliableExchange.

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/rng.hpp"

namespace sttsv::obs {
class MetricsRegistry;
}  // namespace sttsv::obs

namespace sttsv::simt {

struct Delivery;
class PooledBuffer;

/// Per-fault-class probabilities in [0, 1], rolled independently per
/// frame (drop, corrupt, duplicate), per sending rank per exchange
/// (stall), and per inbox per exchange (reorder).
struct FaultConfig {
  double drop = 0.0;
  double corrupt = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double stall = 0.0;
  /// Probability that a sending rank dies permanently, rolled once per
  /// rank per exchange (first frame it sends). Guarded so zero-crash
  /// configs consume no RNG — existing seeded fault patterns are stable.
  double crash = 0.0;
  std::uint64_t seed = 0xFA017ULL;
};

enum class FaultKind : std::uint8_t {
  kDrop,
  kCorrupt,
  kDuplicate,
  kReorder,
  kStall,
  kCrash,
};

/// One injected fault, enough to replay or audit the run. `detail` is
/// kind-specific: corrupt = flipped word index, reorder = inbox size,
/// stall/drop/duplicate = frame word count, crash = 0.
struct FaultEvent {
  std::uint64_t exchange_index = 0;
  FaultKind kind = FaultKind::kDrop;
  std::size_t from = 0;
  std::size_t to = 0;
  std::size_t detail = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  /// What the wire did to a frame; kDeliver may still have corrupted it
  /// in place.
  enum class Action { kDeliver, kDrop, kDuplicate };

  /// Called by the machine's delivery walk before each exchange's frames flow.
  /// Applies any crash scheduled for the new exchange index.
  void begin_exchange();

  /// Schedules rank to die at the start of exchange `exchange_index`
  /// (1-based, matching exchanges_seen() after begin_exchange). The
  /// deterministic complement of the probabilistic `crash` rate: property
  /// tests pin the crash site exactly. Scheduling the past is an error.
  void schedule_crash(std::size_t rank, std::uint64_t exchange_index);

  /// True once rank has crashed. Dead ranks' frames (sent or received)
  /// are dropped without log entries — death is one event, not a stream.
  [[nodiscard]] bool is_dead(std::size_t rank) const;

  /// Sorted ranks that have crashed so far.
  [[nodiscard]] const std::vector<std::size_t>& dead_ranks() const {
    return dead_;
  }

  /// Rolls the fate of one frame from -> to; may flip a bit of `data`
  /// in place (corrupt). Stalled senders lose every frame this exchange.
  Action on_frame(std::size_t from, std::size_t to, PooledBuffer& data);

  /// Possibly permutes rank's inbox (delivered in by-sender order).
  void maybe_reorder(std::size_t rank, std::vector<Delivery>& inbox);

  [[nodiscard]] const FaultConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<FaultEvent>& log() const { return log_; }
  [[nodiscard]] std::uint64_t exchanges_seen() const { return exchange_; }
  void clear_log() { log_.clear(); }

  /// Publishes per-kind injected-fault counts from the log (plus the
  /// total and exchanges seen) into `out` as "<prefix>.*" counters, set
  /// absolutely so re-export is idempotent.
  void publish_metrics(obs::MetricsRegistry& out,
                       const std::string& prefix = "faults") const;

 private:
  [[nodiscard]] bool stalled(std::size_t rank);
  void kill(std::size_t rank);

  // A sending rank's fate in the current exchange.
  enum class Fate : std::uint8_t { kUnrolled, kSpared, kHit };

  FaultConfig config_;
  Rng rng_;
  std::uint64_t exchange_ = 0;
  // Per sending rank, its stall and crash fates in the current exchange,
  // each rolled on the rank's first frame (and only when its probability
  // is above 0). Both grow to the highest sender seen and begin_exchange
  // resets them, so a steady-state exchange allocates nothing here.
  std::vector<Fate> stall_fate_;
  std::vector<Fate> crash_fate_;
  // Sorted, permanently dead ranks.
  std::vector<std::size_t> dead_;
  // rank -> exchange index at which a scheduled crash fires.
  std::unordered_map<std::size_t, std::uint64_t> scheduled_crashes_;
  std::vector<FaultEvent> log_;
};

}  // namespace sttsv::simt
