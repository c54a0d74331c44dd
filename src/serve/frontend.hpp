#pragma once
// Multi-tenant serving front end over batch::parallel_sttsv_batch
// (DESIGN.md §14).
//
// Tenants register lanes and submit independent STTSV requests against
// one resident tensor; the front end admits or rejects each request
// (bounded queues, in-flight quotas, token-bucket rates — rejects are
// explicit and attributed, never silent drops), schedules admitted jobs
// with deficit round-robin into mixed-tenant batches of up to
// batch_width, and runs each batch as one batch::parallel_sttsv_batch
// call. Because every lane of a batched run is bitwise identical to its
// single-vector run (DESIGN.md §9), a tenant's outputs are bitwise
// identical to running its jobs alone — batch composition is
// unobservable in the numbers, the serving-layer extension of the repo's
// determinism invariant.
//
// Time: the front end runs on a VIRTUAL clock (nanoseconds) advanced by
// the caller (advance_to), with a deterministic service-time model —
// a batch of B jobs occupies the server for alpha + beta·B virtual ns.
// Admission, scheduling, batch composition, and every latency number are
// therefore pure functions of the seeded arrival sequence; the batched
// driver still performs the real computation for every admitted job. A
// batch starts as soon as the server is free and jobs are queued (greedy
// dispatch: width-1 batches at light load, full batches under backlog).
//
// Ledger attribution: each batch's ledger delta (goodput words, overhead
// words, messages, rounds) is split evenly across its lanes with the
// remainder charged to the earliest lanes in batch order, so per-tenant
// shares sum EXACTLY to the machine ledger — conservation holds with
// per-tenant resolution (tests/test_serve.cpp).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "batch/plan.hpp"
#include "serve/drr.hpp"
#include "serve/tenant.hpp"
#include "simt/machine.hpp"
#include "simt/reliable_exchange.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::obs {
class MetricsRegistry;
}  // namespace sttsv::obs

namespace sttsv::serve {

struct FrontendOptions {
  /// Largest mixed-tenant batch; the construction prewarms the machine's
  /// pool for a batch this wide.
  std::size_t batch_width = 16;
  /// Total queued jobs across all lanes; arrivals beyond this are
  /// rejected kGlobalQueueFull.
  std::size_t global_queue_depth = 1024;
  /// Virtual service-time model: a batch of B jobs holds the server for
  /// alpha + beta * B nanoseconds. The defaults give a saturation
  /// throughput of batch_width / (alpha + beta * batch_width) jobs/ns.
  std::uint64_t service_alpha_ns = 2'000'000;
  std::uint64_t service_beta_ns = 250'000;
  /// The backend every batch runs through (must wrap the front end's
  /// machine; non-owning, must outlive the front end); null means a
  /// DirectExchange. Under a one-sided backend the per-tenant attribution
  /// picks up the one-sided channel. With a fail-fast ReliableExchange, a
  /// faulted batch raises simt::FaultError out of
  /// submit()/advance_to()/drain() AFTER the front end has re-parked the
  /// batch's jobs (same handles, lane-FIFO order preserved) — no request
  /// is lost and no quota leaks; the caller heals the wire and pumps
  /// again. A lost rank is not recoverable here: batches run the plan's
  /// identity schedule, so every later batch raises PreconditionError.
  simt::Exchanger* exchanger = nullptr;
};

/// One finished job as delivered to its submit callback.
struct JobResult {
  TenantId tenant = 0;
  /// Per-tenant admission sequence number (FIFO witness: completions of
  /// one tenant carry strictly increasing seq).
  std::uint64_t seq = 0;
  std::vector<double> y;
  std::uint64_t arrival_ns = 0;
  std::uint64_t start_ns = 0;       // batch start (queue wait ends)
  std::uint64_t completion_ns = 0;  // virtual completion
};

/// Outcome of submit(): admitted with a job handle, or rejected with a
/// reason (reason is meaningful only when admitted == false).
struct Admission {
  bool admitted = false;
  std::uint64_t job_id = 0;
  RejectReason reason = RejectReason::kShapeMismatch;
};

struct FrontendStats {
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t batches_run = 0;
  std::uint64_t batched_jobs = 0;  // sum of batch sizes
  std::size_t largest_batch = 0;
  /// Batches that raised simt::FaultError mid-run and were re-parked.
  std::uint64_t dispatch_failures = 0;
};

/// Threading contract: single-threaded by design — batches run inline on
/// the pumping thread and the simulated machine has one driver (host
/// parallelism lives below run_ranks); concurrent tenants are multiplexed
/// by the caller feeding one merged arrival sequence. The first thread to
/// call submit()/advance_to()/drain() becomes the owner; Debug builds
/// (STTSV_DEBUG_CHECKS) assert every later pump arrives on that thread
/// unless rebind_owner() hands ownership over.
class Frontend {
 public:
  using Callback = std::function<void(JobResult)>;

  /// Machine, plan and tensor must outlive the front end; the machine
  /// must match the plan, the tensor dimension must equal plan n, and
  /// opts.exchanger (if set) must wrap the machine. Prewarms the
  /// machine's pool for a batch_width-wide batch, so even the first
  /// batch's message path is allocation-free (DESIGN.md §12).
  Frontend(simt::Machine& machine, std::shared_ptr<const batch::Plan> plan,
           const tensor::SymTensor3& a, FrontendOptions opts = {});

  /// Registers a tenant lane; returns its dense id.
  TenantId add_tenant(std::string name, TenantQuota quota = {});

  /// Admission-controlled submit at the current virtual time. On
  /// admission the job enters its tenant's FIFO lane; the callback fires
  /// (inline, during a later pump) when its batch completes.
  Admission submit(TenantId tenant, std::vector<double> x, Callback cb);

  /// Advances the virtual clock to `now_ns` (monotonic), running every
  /// batch whose start time falls at or before it.
  void advance_to(std::uint64_t now_ns);

  /// Runs all queued jobs regardless of virtual time, advancing the
  /// clock through each batch; returns with an empty backlog.
  void drain();

  /// Deliberate ownership handoff: the next submit/advance_to/drain may
  /// come from any thread (which then becomes the new owner). The caller
  /// is responsible for the happens-before edge between the old owner's
  /// last call and the new owner's first.
  void rebind_owner() {
    owner_.store(std::thread::id{}, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t now_ns() const { return now_ns_; }
  [[nodiscard]] std::uint64_t busy_until_ns() const { return busy_until_ns_; }
  [[nodiscard]] std::size_t backlog() const { return drr_.backlog(); }
  [[nodiscard]] std::size_t num_tenants() const { return tenants_.size(); }
  [[nodiscard]] const TenantStats& tenant_stats(TenantId tenant) const;
  [[nodiscard]] const FrontendStats& stats() const { return stats_; }
  [[nodiscard]] const FrontendOptions& options() const { return opts_; }

  /// Saturation throughput of the service model (jobs per virtual
  /// second at full batches) — the benchmarks sweep offered load
  /// relative to this.
  [[nodiscard]] double saturation_jobs_per_s() const;

  /// Graceful capacity degradation after an elastic shrink: rescales the
  /// per-job service cost to `alive` survivors out of the machine's P
  /// ranks (beta -> beta * P / alive, rounded up), so admission and the
  /// virtual latency numbers reflect the smaller cluster. Idempotent in
  /// `alive` (always rescales from the construction-time beta); restore
  /// full capacity with alive == P.
  void degrade_capacity(std::size_t alive);

  /// Publishes global counters plus per-tenant counters, ledger shares
  /// and latency percentiles as "<prefix>.*" / "<prefix>.tenant.<name>.*"
  /// (set absolutely, so re-export is idempotent).
  void publish_metrics(obs::MetricsRegistry& out,
                       const std::string& prefix = "serve") const;

 private:
  struct PendingJob {
    TenantId tenant = 0;
    std::uint64_t seq = 0;
    std::uint64_t arrival_ns = 0;
    std::vector<double> x;
    Callback cb;
  };

  /// Runs one DRR batch starting at `start_ns` virtual time.
  void run_batch(std::uint64_t start_ns);
  /// Queued + not-yet-complete jobs of a tenant at the current time.
  [[nodiscard]] std::size_t in_flight(TenantId tenant);
  /// Debug-only single-threaded-use assertion (see class comment): binds
  /// the owner on first call, then STTSV_DCHECKs every later caller.
  void assert_owner() const;

  simt::Machine& machine_;
  std::shared_ptr<const batch::Plan> plan_;
  const tensor::SymTensor3& a_;
  FrontendOptions opts_;
  DrrScheduler drr_;
  std::vector<TenantStats> tenants_;
  std::vector<TokenBucket> buckets_;
  /// Per tenant: virtual completion times of dispatched jobs, ascending;
  /// pruned lazily against the clock for in-flight accounting.
  std::vector<std::deque<std::uint64_t>> dispatched_;
  std::unordered_map<std::uint64_t, PendingJob> jobs_;
  std::uint64_t next_handle_ = 0;
  std::uint64_t now_ns_ = 0;
  std::uint64_t busy_until_ns_ = 0;
  /// Construction-time service beta, the degrade_capacity() baseline.
  std::uint64_t base_beta_ns_ = 0;
  FrontendStats stats_;
  /// Single-threaded-use witness; id{} until the first pump.
  mutable std::atomic<std::thread::id> owner_{};
};

}  // namespace sttsv::serve
