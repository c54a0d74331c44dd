#pragma once
// A simulated distributed-memory machine in the α-β-γ (MPI) model of the
// paper's Section 3.1: P ranks with private memories, a fully connected
// network, at most one message sent and one received per rank per step.
//
// Substitution note (see DESIGN.md §2): there is no MPI runtime in this
// environment. Algorithms execute in BSP-style supersteps — local compute
// phases loop over ranks, communication phases are machine-wide exchanges.
// The semantics (who knows what, when) are identical to the per-rank MPI
// program, and the ledger counts exactly the words the α-β-γ model counts.
//
// Traffic crosses the machine in one place, the private delivery walk
// (DESIGN.md §10.2): every backend reaches it through the protected
// forwarders of Exchanger, the machine's one friend. The walk validates,
// charges each envelope's words and moves its slab; the mailbox exchange
// and the one-sided and hierarchical backends each price it with their
// own rounds and sync ops.
//
// Payloads live in PooledBuffers drawn from the machine's per-rank
// BufferPool (DESIGN.md §12): the walk moves slabs, never copies, and a
// steady-state superstep allocates no slab.
//
// An optional FaultInjector (DESIGN.md §10) sits on the mailbox wire:
// frames may be dropped, corrupted, duplicated, delayed by a stalled
// sender, or reordered within an inbox. The ledger charges traffic at
// send time, so its conservation invariant holds under every fault
// pattern; recovering the delivered data is the job of
// simt::ReliableExchange one layer up.
//
// The machine also owns membership truth (DESIGN.md §15): once a rank is
// marked dead — by the injector's crash model, synced at exchange start —
// every frame it sends or should receive is silently discarded *below*
// the injector and the fault-hiding protocols, charging nothing. Death is
// therefore indistinguishable from permanent silence on the wire, which
// is exactly what the liveness detector in ReliableExchange keys on, and
// degraded-mode replays (which bypass the injector) cannot resurrect a
// dead peer. Detected losses are recorded as RankLossReports here, and
// each death bumps a membership epoch.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "simt/buffer_pool.hpp"
#include "simt/ledger.hpp"

namespace sttsv::simt {

class FaultInjector;
class Exchanger;

/// One outgoing message: destination rank plus payload words. The first
/// `overhead_words` words are protocol framing (sequence numbers,
/// checksums, ACK entries) and are charged to the ledger's overhead
/// channel; the rest are goodput. Raw algorithm traffic leaves it 0.
/// `recovery` marks rank-loss redistribution traffic: the whole payload
/// is charged to the ledger's recovery channel instead (overhead_words
/// must be 0 — redistribution uses the raw exchange, not the protocol).
struct Envelope {
  std::size_t to = 0;
  PooledBuffer data;
  std::size_t overhead_words = 0;
  bool recovery = false;
};

/// Puts an outbox in delivery order: by destination, insertion order kept
/// among envelopes to the same rank. Sorts only an outbox out of order.
void sort_by_destination(std::vector<Envelope>& outbox);

/// One delivered message: source rank plus payload words. Deliveries are
/// handed to the receiver sorted by sender, so execution is deterministic
/// (a fault injector may reorder them afterwards).
struct Delivery {
  std::size_t from = 0;
  PooledBuffer data;
};

/// Structured verdict of the liveness detector (DESIGN.md §15): which
/// peers were declared dead, where in the run, and the evidence — how
/// many consecutive silent attempts each accumulated and how many frames
/// were still undelivered when the verdict fired. The injection-log
/// window [begin, end) points into FaultInjector::log() for replay.
struct RankLossReport {
  std::vector<std::size_t> dead_ranks;
  std::string phase;
  std::uint64_t exchange_index = 0;
  std::size_t silent_attempts = 0;
  std::size_t undelivered_frames = 0;
  std::uint64_t membership_epoch = 0;
  std::size_t injection_log_begin = 0;
  std::size_t injection_log_end = 0;
};

/// How a communication phase is realized on the wire; affects the rounds
/// and modeled-cost accounting (Section 7.2.2), not the delivered data.
enum class Transport {
  /// Direct point-to-point sends scheduled in König rounds: the number of
  /// steps charged is the max over ranks of max(#sends, #receives), which
  /// is achievable by edge coloring (paper Theorem 7.2.2 via Lemma 7.2.1).
  kPointToPoint,
  /// A bandwidth-optimal All-to-All collective: P-1 steps, each charged
  /// the maximum per-pair buffer size (paper's "All-to-All collectives"
  /// cost model at the end of Section 7.2.2).
  kAllToAll,
};

/// Per topology level, each rank's frames sent (or received) in one
/// exchange.
using LevelCounts = std::array<std::vector<std::size_t>, kNumLevels>;

/// The round charge of one exchange, shared by every backend. Under
/// kPointToPoint each level is König-colored on its own (DESIGN.md §17):
/// Δ = max over ranks of max(sends, receives) on that level. Under
/// kAllToAll one machine-wide collective takes P - 1 steps, charged to
/// the slowest level it touched (inter if any rank sent across nodes),
/// each step moving the largest per-pair buffer, `max_pair_words`.
void charge_rounds(CommLedger& ledger, Channel channel, Transport transport,
                   const LevelCounts& sends, const LevelCounts& recvs,
                   std::size_t max_pair_words);

/// What one delivery walk moved. Per level, each rank's frames sent and
/// received; per channel, the words charged (injected duplicates aside);
/// and the largest per-pair sum of frame words, the step size of an
/// All-to-All.
struct WalkTally {
  LevelCounts sends;
  LevelCounts recvs;
  std::array<std::size_t, kNumChannels> words{};
  std::size_t max_pair_words = 0;
};

class Machine {
 public:
  explicit Machine(std::size_t num_ranks);
  // The pool's shard mutexes make the machine non-copyable; every use in
  // the tree either constructs in place or returns a prvalue (guaranteed
  // elision), so nothing is lost.
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] std::size_t num_ranks() const { return P_; }

  /// Runs body(p) once for every rank p — the local compute half of a
  /// superstep. Rank programs are independent between exchanges (each
  /// reads/writes only rank-p state), so they may execute on host threads
  /// (simt::parallel_for); the ledger is untouched and results are bitwise
  /// identical to the sequential rank-order schedule.
  void run_ranks(const std::function<void(std::size_t)>& body) const;

  /// Same, over an explicit subset of ranks — the driver runs only the
  /// ranks that host a partition role.
  void run_ranks(const std::vector<std::size_t>& ranks,
                 const std::function<void(std::size_t)>& body) const;

  [[nodiscard]] const CommLedger& ledger() const { return ledger_; }
  CommLedger& ledger() { return ledger_; }

  /// Message-slab arena, one shard per rank. Drivers acquire outgoing
  /// payload buffers from the sender's shard; buffers return there when
  /// the receiver drops them.
  [[nodiscard]] BufferPool& pool() { return pool_; }
  [[nodiscard]] const BufferPool& pool() const { return pool_; }

  /// NUMA-friendly first touch (DESIGN.md §17): writes every idle slab of
  /// each rank's pool shard from a worker thread via run_ranks, so the
  /// pages backing rank-local message buffers are faulted on the socket
  /// that will drive them — not on whichever thread happened to call
  /// prewarm. Call after BufferPool::reserve / Plan::prewarm_pool;
  /// idempotent and allocation-free (it only touches what is already
  /// reserved).
  void first_touch();

  /// Installs (or with nullptr removes) a wire fault injector. Non-owning;
  /// the injector must outlive its installation.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const { return injector_; }

  /// Marks rank permanently dead (idempotent). From now on every frame to
  /// or from it is discarded uncharged, below injector and protocol, so a
  /// dead peer stays silent even on degraded-mode replays. Each newly
  /// dead rank bumps the membership epoch. At least one rank must stay
  /// alive. Crash-injected deaths are synced here automatically at the
  /// start of each exchange; detectors call it directly on a verdict.
  void mark_dead(std::size_t rank);

  [[nodiscard]] bool alive(std::size_t rank) const {
    return !dead_flags_.empty() ? dead_flags_[rank] == 0 : true;
  }
  [[nodiscard]] std::size_t num_alive() const { return num_alive_; }
  /// Sorted ranks marked dead so far.
  [[nodiscard]] std::vector<std::size_t> dead_ranks() const;
  /// Bumped once per newly-dead rank.
  [[nodiscard]] std::uint64_t membership_epoch() const {
    return membership_epoch_;
  }

  /// Files a detector verdict for later audit / recovery planning.
  void record_rank_loss(RankLossReport report);
  [[nodiscard]] const std::vector<RankLossReport>& rank_loss_reports() const {
    return rank_loss_reports_;
  }

  /// Resets accounting (e.g. to ignore a warm-up distribution phase).
  /// An installed node map survives the reset: the machine's topology is
  /// physical, not per-run.
  void reset_ledger();

 private:
  // The wire is reached only through an Exchanger (DESIGN.md §10.2), whose
  // protected forwarders are every backend's one way onto it.
  friend class Exchanger;

  /// The delivery walk, the one place traffic crosses the machine. It
  /// validates every outbox up front — destinations in range, no
  /// self-sends, overhead_words within the payload, none on a recovery
  /// envelope — so a PreconditionError leaves the ledger, the inboxes and
  /// all payloads untouched. Then it walks origins ascending, each outbox
  /// sorted by destination, drops traffic to or from a dead rank
  /// uncharged, records each envelope's payload on `payload` (recovery
  /// envelopes on kRecovery, even when empty) and its framing on
  /// kOverhead, and moves its slab into the target's inbox. Both sets are
  /// the caller's: the inboxes are cleared and refilled, the outboxes
  /// emptied, each keeping its capacity. With a non-null `wire` every
  /// frame passes that injector. It charges no rounds and no sync ops;
  /// the caller prices the walk from the returned tally, which lives
  /// until the next walk.
  const WalkTally& deliver(std::vector<std::vector<Envelope>>& outboxes,
                           std::vector<std::vector<Delivery>>& inboxes,
                           Channel payload, FaultInjector* wire);

  /// The mailbox exchange: the walk on the goodput channel through the
  /// installed injector, then its rounds, charged to the dominant channel
  /// (goodput, else recovery, else overhead for pure protocol traffic).
  void exchange_into(std::vector<std::vector<Envelope>>& outboxes,
                     std::vector<std::vector<Delivery>>& inboxes,
                     Transport transport);

  std::size_t P_;
  CommLedger ledger_;
  FaultInjector* injector_ = nullptr;
  BufferPool pool_;
  std::vector<char> dead_flags_;
  std::size_t num_alive_;
  std::uint64_t membership_epoch_ = 0;
  std::vector<RankLossReport> rank_loss_reports_;
  // The last walk's tally, sized once so a walk allocates nothing.
  WalkTally tally_;
};

}  // namespace sttsv::simt
