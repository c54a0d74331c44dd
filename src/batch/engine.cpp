#include "batch/engine.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace sttsv::batch {

Engine::Engine(simt::Machine& machine, std::shared_ptr<const Plan> plan,
               const tensor::SymTensor3& a, EngineOptions opts)
    : machine_(machine), plan_(std::move(plan)), a_(a), opts_(opts) {
  STTSV_REQUIRE(plan_ != nullptr, "engine needs a plan");
  STTSV_REQUIRE(opts_.max_batch_size >= 1, "batch size must be >= 1");
  STTSV_REQUIRE(machine_.num_ranks() == plan_->num_processors(),
                "machine rank count must match plan");
  STTSV_REQUIRE(a_.dim() == plan_->key().n,
                "tensor dimension must match plan");
  STTSV_REQUIRE(opts_.exchanger == nullptr ||
                    &opts_.exchanger->machine() == &machine_,
                "engine exchanger must wrap the engine's machine");
  // Size the pool for a full-width batch up front so even the first
  // batch's message path is allocation-free (DESIGN.md §12), then fault
  // the reserved slabs in from their consumer threads (DESIGN.md §17).
  plan_->prewarm_pool(machine_.pool(), opts_.max_batch_size);
  machine_.first_touch();
}

void Engine::assert_owner() const {
#ifdef STTSV_DEBUG_CHECKS
  std::thread::id expected{};
  const std::thread::id self = std::this_thread::get_id();
  if (!owner_.compare_exchange_strong(expected, self,
                                      std::memory_order_relaxed)) {
    STTSV_DCHECK(expected == self,
                 "batch::Engine is single-threaded: call from the owning "
                 "thread or rebind_owner() first");
  }
#endif
}

std::size_t Engine::submit(std::vector<double> x, Callback callback) {
  assert_owner();
  STTSV_REQUIRE(x.size() == plan_->key().n, "request vector length mismatch");
  const std::size_t id = next_id_++;
  queue_.push_back(Request{id, std::move(x), std::move(callback)});
  ++stats_.requests_submitted;
  if (queue_.size() >= opts_.max_batch_size) run_one_batch();
  return id;
}

void Engine::flush() {
  assert_owner();
  while (!queue_.empty()) run_one_batch();
}

std::vector<std::vector<double>> Engine::cancel_pending() {
  assert_owner();
  std::vector<std::vector<double>> xs;
  xs.reserve(queue_.size());
  while (!queue_.empty()) {
    xs.push_back(std::move(queue_.front().x));
    queue_.pop_front();
  }
  return xs;
}

void Engine::rebind_plan(std::shared_ptr<const Plan> plan) {
  assert_owner();
  STTSV_REQUIRE(plan != nullptr, "engine needs a plan");
  STTSV_REQUIRE(plan->key().n == plan_->key().n,
                "rebound plan must keep the tensor dimension");
  STTSV_REQUIRE(machine_.num_ranks() == plan->num_processors(),
                "machine rank count must match the rebound plan");
  plan->prewarm_pool(machine_.pool(), opts_.max_batch_size);
  machine_.first_touch();
  plan_ = std::move(plan);
}

void Engine::run_one_batch() {
  const std::size_t B = std::min(queue_.size(), opts_.max_batch_size);
  STTSV_CHECK(B >= 1, "empty batch");
  obs::Span span("engine.batch", obs::Category::kEngineFlush, B);
  std::vector<std::vector<double>> x(B);
  for (std::size_t v = 0; v < B; ++v) x[v] = queue_[v].x;

  // Requests leave the queue only after the batch succeeds: a FaultError
  // from a fail-fast resilient exchange propagates with the batch still
  // queued, so the caller can retry flush() (inputs were copied, not
  // consumed).
  BatchRunResult result =
      opts_.exchanger != nullptr
          ? parallel_sttsv_batch(*opts_.exchanger, *plan_, a_, x)
          : parallel_sttsv_batch(machine_, *plan_, a_, x);

  std::vector<Request> batch;
  batch.reserve(B);
  for (std::size_t v = 0; v < B; ++v) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  ++stats_.batches_run;
  stats_.largest_batch = std::max(stats_.largest_batch, B);
  for (std::size_t v = 0; v < B; ++v) {
    if (batch[v].callback) {
      batch[v].callback(batch[v].id, std::move(result.y[v]));
    }
    ++stats_.requests_completed;
  }
}

void Engine::publish_metrics(obs::MetricsRegistry& out,
                             const std::string& prefix) const {
  out.set_counter(prefix + ".requests_submitted", stats_.requests_submitted);
  out.set_counter(prefix + ".requests_completed", stats_.requests_completed);
  out.set_counter(prefix + ".batches_run", stats_.batches_run);
  out.set_counter(prefix + ".largest_batch", stats_.largest_batch);
  out.set_counter(prefix + ".pending", queue_.size());
}

}  // namespace sttsv::batch
