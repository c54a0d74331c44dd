#include "simt/parallel_for.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "support/check.hpp"
#include "support/text.hpp"

namespace sttsv::simt {

namespace {

/// STTSV_HOST_THREADS is read as decimal digits only (parse_u64): a sign,
/// any other character, 0 or a value past 64 bits means automatic. The
/// hardware count is read once: glibc reads it from /sys on every call.
std::size_t env_or_hardware_concurrency() {
  if (const char* env = std::getenv("STTSV_HOST_THREADS")) {
    try {
      const std::uint64_t v = parse_u64(env);
      if (v > 0) return static_cast<std::size_t>(v);
    } catch (const PreconditionError&) {
    }
  }
  static const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::atomic<std::size_t> g_override{0};  // 0 = automatic

/// Persistent superstep pool. Workers sleep between jobs; a job is a
/// (count, body) pair plus a shared index counter. No per-thread queues:
/// every participant pulls the next index until the counter is exhausted.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  /// Precondition: threads >= 2 and count >= 1 (caller runs count <= 1 or
  /// single-threaded loops inline). `automatic` (no override) caps helpers.
  void run(std::size_t count, const std::function<void(std::size_t)>& body,
           std::size_t threads, std::size_t automatic) {
    std::size_t helpers = std::min(threads, count) - 1;
    {
      std::lock_guard<std::mutex> lk(mu_);
      spawn_up_to(helpers, automatic);
      helpers = std::min(helpers, workers_.size());
      body_ = &body;
      count_ = count;
      next_.store(0, std::memory_order_relaxed);
      helper_slots_ = helpers;
      ++generation_;
    }
    job_cv_.notify_all();
    work();  // the calling thread participates
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] {
      return running_ == 0 && next_.load(std::memory_order_relaxed) >= count_;
    });
    // A helper that never woke for this job must not claim it later: its
    // work() would read count_ and body_ while the next run() rewrites them.
    helper_slots_ = 0;
    body_ = nullptr;
    if (error_ != nullptr) {
      std::exception_ptr err = error_;
      error_ = nullptr;
      lk.unlock();
      std::rethrow_exception(err);
    }
  }

 private:
  Pool() = default;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    job_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  void spawn_up_to(std::size_t helpers, std::size_t automatic) {
    // Never more helpers than the machine could run; the cap also bounds
    // the cost of an absurd set_host_concurrency value.
    const std::size_t cap = automatic * 4;
    helpers = std::min(helpers, std::max<std::size_t>(cap, 8));
    while (workers_.size() < helpers) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void work() {
    for (;;) {
      const std::size_t idx = next_.fetch_add(1, std::memory_order_relaxed);
      if (idx >= count_) return;
      try {
        (*body_)(idx);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (error_ == nullptr) error_ = std::current_exception();
      }
    }
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lk(mu_);
    std::uint64_t seen = 0;
    for (;;) {
      job_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (helper_slots_ == 0) continue;  // job already fully staffed
      --helper_slots_;
      ++running_;
      lk.unlock();
      work();
      lk.lock();
      if (--running_ == 0) done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t helper_slots_ = 0;
  std::size_t running_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr error_ = nullptr;
  bool stop_ = false;
};

}  // namespace

std::size_t host_concurrency() {
  const std::size_t n = g_override.load(std::memory_order_relaxed);
  return n > 0 ? n : env_or_hardware_concurrency();
}

void set_host_concurrency(std::size_t n) {
  g_override.store(n, std::memory_order_relaxed);
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  const std::size_t automatic = env_or_hardware_concurrency();
  const std::size_t n = g_override.load(std::memory_order_relaxed);
  const std::size_t threads = n > 0 ? n : automatic;
  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  Pool::instance().run(count, body, threads, automatic);
}

ConcurrencyGuard::ConcurrencyGuard(std::size_t n)
    : saved_(g_override.load(std::memory_order_relaxed)) {
  set_host_concurrency(n);
}

ConcurrencyGuard::~ConcurrencyGuard() { set_host_concurrency(saved_); }

}  // namespace sttsv::simt
