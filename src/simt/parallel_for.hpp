#pragma once
// Host-side threaded executor for the simulated machine's compute phases.
//
// The simulator runs P rank programs in BSP supersteps (machine.hpp): the
// per-rank local compute of a phase is embarrassingly parallel — each rank
// reads only its own gathered inputs and writes only its own partial
// buffers — so it may run on host threads without changing a single word
// of the communication ledger. Indices are handed out dynamically from a
// shared counter (no work stealing, no per-thread queues); because rank
// outputs are disjoint, results are bitwise identical to the sequential
// schedule no matter which thread executes which rank.
//
// Host threading is a *simulation speedup* only: the paper's cost model is
// untouched (see DESIGN.md §8 on simulated- vs host-parallelism).

#include <cstddef>
#include <functional>

namespace sttsv::simt {

/// Number of host threads parallel_for may use. Resolution order: the
/// last set_host_concurrency(n > 0) value, else the STTSV_HOST_THREADS
/// environment variable if it is a positive decimal number, else
/// std::thread::hardware_concurrency().
std::size_t host_concurrency();

/// Overrides the host thread count; 0 restores automatic resolution.
void set_host_concurrency(std::size_t n);

/// Runs body(0) … body(count-1), each exactly once, on up to
/// host_concurrency() threads (the calling thread participates). Returns
/// after every iteration completed; the first exception thrown by any
/// iteration is rethrown on the caller. With host_concurrency() == 1 the
/// loop runs inline.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

/// RAII override of host_concurrency for tests: pins the thread count on
/// construction, restores the previous setting on destruction.
class ConcurrencyGuard {
 public:
  explicit ConcurrencyGuard(std::size_t n);
  ~ConcurrencyGuard();
  ConcurrencyGuard(const ConcurrencyGuard&) = delete;
  ConcurrencyGuard& operator=(const ConcurrencyGuard&) = delete;

 private:
  std::size_t saved_;
};

}  // namespace sttsv::simt
