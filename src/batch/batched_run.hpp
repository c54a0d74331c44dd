#pragma once
// Batched multi-vector STTSV (DESIGN.md §9): run y_v = A ×₂ x_v ×₃ x_v
// for a panel of B vectors against one tensor in a single Algorithm-5
// pass. All B shares travelling between an ordered rank pair ride in ONE
// aggregated message per phase, so the per-rank message count is that of
// a single-vector run (independent of B) while words sent are exactly
// B × the single-vector ledger value — the per-vector word count stays
// at the paper's optimum and the per-vector latency term drops ~B×.
//
// These are thin calls into core::parallel_sttsv_panel, the one
// Algorithm-5 driver, with the Plan's cached exchange walk and transport.
// Wire format: a phase-1 message from p to peer is the concatenation,
// over common row blocks ascending, of p's share slice of each block,
// each slice lane-interleaved (element-major, lane index innermost).
// Phase-3 messages carry the receiver's share slices in the same layout.

#include <vector>

#include "batch/plan.hpp"
#include "core/parallel_sttsv.hpp"
#include "simt/machine.hpp"
#include "simt/reliable_exchange.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::batch {

/// y[v] per input vector and ternary multiplications per rank summed over
/// the batch; words moved are on the machine's ledger.
using BatchRunResult = core::PanelRunResult;

/// Runs the batch {x_0..x_{B-1}} (B >= 1) through one aggregated
/// Algorithm-5 pass using `plan`'s precomputed partition, distribution
/// and exchange walk. Lane v of the result is bitwise identical to
/// core::parallel_sttsv(machine, ..., x_v, plan.key().transport): both
/// run the one driver and its panel kernels.
/// Requirements: machine.num_ranks() == plan.num_processors(),
/// a.dim() == plan.key().n, every x_v of length n, every rank alive.
BatchRunResult parallel_sttsv_batch(
    simt::Machine& machine, const Plan& plan, const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& x);

/// Same batch, communication routed through `exchanger` (DESIGN.md §10):
/// with simt::ReliableExchange the aggregated panel exchanges survive
/// injected wire faults bitwise, goodput stays at B × the single-vector
/// optimum, and protocol cost lands on the ledger's overhead channel.
/// Phases are labeled "x-panel" and "y-panel" in any FaultReport.
BatchRunResult parallel_sttsv_batch(
    simt::Exchanger& exchanger, const Plan& plan, const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& x);

}  // namespace sttsv::batch
