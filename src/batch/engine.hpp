#pragma once
// Request scheduler over the batched STTSV engine (DESIGN.md §9).
// Callers submit independent (x, callback) requests against one resident
// tensor; the engine admits them into a FIFO queue and forms batches
// deterministically: a batch is cut as soon as max_batch_size requests
// are pending (auto-flush) or when flush() drains the queue. Batches
// preserve submission order, so a given request sequence always produces
// the same batch boundaries, the same aggregated messages, and bitwise
// identical outputs — the serving-path analogue of the repo's
// "host parallelism must be unobservable" rule.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "batch/batched_run.hpp"
#include "batch/plan.hpp"
#include "simt/machine.hpp"
#include "simt/reliable_exchange.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::obs {
class MetricsRegistry;
}  // namespace sttsv::obs

namespace sttsv::batch {

struct EngineOptions {
  /// Auto-flush threshold: a batch runs as soon as this many requests
  /// are pending. flush() also cuts batches of at most this size.
  std::size_t max_batch_size = 16;
  /// The backend batches run through (it must wrap the engine's
  /// machine); null means a DirectExchange. Callers construct reliable,
  /// one-sided or hierarchical backends themselves (DESIGN.md §10, §16,
  /// §17). With a simt::ReliableExchange under kFailFast, a batch whose
  /// retry budget is exhausted raises simt::FaultError out of
  /// submit()/flush() — the batch's requests stay queued, so the caller
  /// may retry the flush; under kDegrade the batch completes and the
  /// exchanger's reports() record the degraded exchanges. Non-owning;
  /// must outlive the engine.
  simt::Exchanger* exchanger = nullptr;
};

struct EngineStats {
  std::uint64_t requests_submitted = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t batches_run = 0;
  std::size_t largest_batch = 0;
};

/// Threading contract: the engine is single-threaded by design — batches
/// run inline on the submitting thread and the simulated machine is
/// driven from one thread (host parallelism lives below run_ranks). The
/// first thread to call submit()/flush()/pending() becomes the owner;
/// Debug builds (STTSV_DEBUG_CHECKS) assert every later call arrives on
/// that thread. Concurrent callers — the serve front end's lanes — must
/// serialize above the engine (serve::Frontend pumps from one thread) or
/// take ownership explicitly with rebind_owner().
class Engine {
 public:
  /// Called with the request id and the finished y = A ×₂ x ×₃ x.
  using Callback =
      std::function<void(std::size_t id, std::vector<double> y)>;

  /// The machine, plan and tensor must outlive the engine; the tensor
  /// dimension must match plan.key().n.
  Engine(simt::Machine& machine, std::shared_ptr<const Plan> plan,
         const tensor::SymTensor3& a, EngineOptions opts = {});

  /// Admits one request; returns its id (dense, starting at 0). Runs a
  /// batch inline — invoking callbacks before returning — whenever the
  /// pending count reaches max_batch_size.
  std::size_t submit(std::vector<double> x, Callback callback);

  /// Drains the queue: runs pending requests in batches of at most
  /// max_batch_size, in submission order.
  void flush();

  /// Abandons every pending request without running it: returns the
  /// queued input vectors in submission order and drops the callbacks.
  /// The recovery seam (DESIGN.md §15): after a simt::FaultError escapes
  /// submit()/flush(), the caller reclaims the inputs, shrinks/rebinds,
  /// and resubmits under its own bookkeeping (serve::Frontend re-parks
  /// them under the original job handles).
  std::vector<std::vector<double>> cancel_pending();

  /// Swaps in a new plan mid-life (same n, same machine width) — the
  /// elastic-shrink hook: after a membership change the caller rebuilds
  /// the plan and rebinds without tearing the engine (and its
  /// queue/stats/ids) down. Prewarms the pool for the new plan's walk.
  void rebind_plan(std::shared_ptr<const Plan> plan);

  [[nodiscard]] std::size_t pending() const {
    assert_owner();
    return queue_.size();
  }

  /// Deliberate ownership handoff: the next submit/flush/pending call may
  /// come from any thread (which then becomes the new owner). The caller
  /// is responsible for the happens-before edge between the old owner's
  /// last call and the new owner's first.
  void rebind_owner() { owner_.store(std::thread::id{}, std::memory_order_relaxed); }
  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  [[nodiscard]] const Plan& plan() const { return *plan_; }
  [[nodiscard]] const EngineOptions& options() const { return opts_; }

  /// Publishes EngineStats (plus the current pending count) into `out` as
  /// "<prefix>.*" counters, set absolutely so re-export is idempotent.
  void publish_metrics(obs::MetricsRegistry& out,
                       const std::string& prefix = "engine") const;

 private:
  void run_one_batch();
  /// Debug-only single-threaded-use assertion (see class comment): binds
  /// the owner on first call, then STTSV_DCHECKs every later caller.
  void assert_owner() const;

  struct Request {
    std::size_t id = 0;
    std::vector<double> x;
    Callback callback;
  };

  simt::Machine& machine_;
  std::shared_ptr<const Plan> plan_;
  const tensor::SymTensor3& a_;
  EngineOptions opts_;
  std::deque<Request> queue_;
  std::size_t next_id_ = 0;
  EngineStats stats_;
  /// Single-threaded-use witness; id{} until the first public call.
  mutable std::atomic<std::thread::id> owner_{};
};

}  // namespace sttsv::batch
