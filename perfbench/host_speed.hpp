#pragma once
// Host speed reference: a fixed contraction over the workload's packed
// tensor, timed between batches, so timings can be read at a fixed host
// speed.
//
// On a shared host the CPU time of the same work swings by half between a
// quiet and a loaded phase (contended shared caches and SMT siblings). The
// reference pass is benchmark-owned code that never changes with the
// library: a plain 16-lane symmetric tensor contraction over the packed
// tensor on every host thread, which slows with the host in the same
// phases as the library's panel kernels. A workload's timings are divided
// by factor(): the reference pass's median CPU time per tensor entry over
// the run, against kNominalNsPerEntry.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// CPU ns per tensor entry of the reference pass on a quiet 4-vCPU AVX2
  /// host; it only fixes the scale of the adjusted figures.
  static constexpr double kNominalNsPerEntry = 40.0;
  /// A pass is taken once the measured work since the previous pass
  /// reaches this many times the previous pass's cost.
  static constexpr double kWorkPerPass = 8.0;

  explicit HostSpeed(std::size_t threads) : threads_(threads ? threads : 1) {}

  /// Points later passes at a (new) packed symmetric tensor of dimension
  /// n; `words` (its packed size) must be n(n+1)(n+2)/6.
  void bind(const double* data, std::size_t words, std::size_t n);

  /// Called after each measured unit of work that cost `work_cpu_ns` of
  /// process CPU time; true when a reference pass is due (always before
  /// the first one). Callers pause their own clocks around pass().
  bool due(std::uint64_t work_cpu_ns);

  /// Takes one reference pass now and returns its process CPU ns.
  std::uint64_t pass();

  /// Median reference CPU ns per entry over the passes so far, divided by
  /// kNominalNsPerEntry: above 1 on a slower-than-nominal host.
  [[nodiscard]] double factor() const;
  [[nodiscard]] std::size_t passes() const { return ns_per_entry_.size(); }

 private:
  const double* data_ = nullptr;
  std::size_t n_ = 0;
  std::size_t threads_;
  std::vector<double> x_;
  std::uint64_t owed_ns_ = 0;  // measured work since the last pass
  std::uint64_t last_pass_ns_ = 0;
  std::vector<double> ns_per_entry_;
  volatile double sink_ = 0.0;  // keeps the passes' results observable
};

}  // namespace perfbench
