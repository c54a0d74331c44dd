#pragma once
// Batched multi-vector STTSV (DESIGN.md §9): run y_v = A ×₂ x_v ×₃ x_v
// for a panel of B vectors against one tensor in a single Algorithm-5
// pass. All B shares travelling between an ordered rank pair ride in ONE
// aggregated message per phase, so the per-rank message count is that of
// a single-vector run (independent of B) while words sent are exactly
// B × the single-vector ledger value — the per-vector word count stays
// at the paper's optimum and the per-vector latency term drops ~B×.
//
// Wire format: a phase-1 message from p to peer is the concatenation,
// over common row blocks ascending, of p's share slice of each block,
// each slice lane-interleaved (element-major, lane index innermost).
// Phase-3 messages carry the receiver's share slices in the same layout.
// Receivers replay the identical deterministic walk from the Plan.

#include <cstdint>
#include <vector>

#include "batch/plan.hpp"
#include "simt/ledger.hpp"
#include "simt/machine.hpp"
#include "simt/pipeline.hpp"
#include "simt/reliable_exchange.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::batch {

struct BatchRunResult {
  /// y[v] is the assembled output for input vector v, logical length n.
  std::vector<std::vector<double>> y;
  /// Ternary multiplications per rank, summed over the batch.
  std::vector<std::uint64_t> ternary_mults;
  /// Ledger maxima after this run (CommLedger::maxima()).
  simt::LedgerMaxima maxima;
};

/// Runs the batch {x_0..x_{B-1}} (B >= 1) through one aggregated
/// Algorithm-5 pass using `plan`'s precomputed partition, distribution
/// and exchange walk. Lane v of the result is bitwise identical to
/// core::parallel_sttsv(machine, ..., x_v, plan.key().transport) while
/// core::kernel_options().math is KernelMath::kStandard (the default).
/// Panel kernels always use standard math, so under a process-wide
/// kCompressed the two differ by rounding on interior blocks.
/// Requirements: machine.num_ranks() == plan.num_processors(),
/// a.dim() == plan.key().n, every x_v of length n.
/// `pipeline` selects the phase schedule (see core::parallel_sttsv):
/// kDoubleBuffered overlaps pair-block chunks, kSerialized is the
/// historical order; lanes and ledger are identical either way.
BatchRunResult parallel_sttsv_batch(
    simt::Machine& machine, const Plan& plan, const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& x,
    simt::PipelineMode pipeline = simt::PipelineMode::kDoubleBuffered);

/// Same batch, communication routed through `exchanger` (DESIGN.md §10):
/// with simt::ReliableExchange the aggregated panel exchanges survive
/// injected wire faults bitwise, goodput stays at B × the single-vector
/// optimum, and protocol cost lands on the ledger's overhead channel.
/// Phases are labeled "x-panel" and "y-panel" in any FaultReport.
BatchRunResult parallel_sttsv_batch(
    simt::Exchanger& exchanger, const Plan& plan, const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& x,
    simt::PipelineMode pipeline = simt::PipelineMode::kDoubleBuffered);

}  // namespace sttsv::batch
