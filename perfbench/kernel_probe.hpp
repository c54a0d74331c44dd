#pragma once
// Standalone kernel probe: runs batch::apply_block_panel over every
// rank's owned blocks of a plan, outside any driver, so kernel time is
// measured on its own. Work is the ternary-multiplication count the
// kernels return, the unit every kernel path reports.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "batch/plan.hpp"
#include "simt/machine.hpp"
#include "tensor/sym_tensor.hpp"

namespace perfbench {

struct ProbeTiming {
  double ms = 0.0;  // median wall time of one pass over all owned blocks
  std::uint64_t ternary_mults = 0;  // per pass, summed over lanes
};

class KernelProbe {
 public:
  /// Plan, tensor and machine must outlive the probe.
  KernelProbe(const sttsv::batch::Plan& plan,
              const sttsv::tensor::SymTensor3& a,
              const sttsv::simt::Machine& machine, std::uint64_t seed);

  /// One pass = every rank's owned blocks at `lanes` lanes. With
  /// `driver_chunks` the ranks run in the same two rank groups the
  /// double-buffered batch driver uses; otherwise in one run_ranks.
  ProbeTiming measure(std::size_t lanes, std::size_t reps,
                      bool driver_chunks);

  [[nodiscard]] std::size_t n() const { return a_.dim(); }

 private:
  const sttsv::batch::Plan& plan_;
  const sttsv::tensor::SymTensor3& a_;
  const sttsv::simt::Machine& machine_;
  std::uint64_t seed_;
};

}  // namespace perfbench
