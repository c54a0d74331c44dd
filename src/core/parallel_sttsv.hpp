#pragma once
// Parallel STTSV (paper Algorithm 5) on the simulated machine.
//
// Data distribution (Section 6.1): processor p owns the extended
// tetrahedral block A[T_p] = TB₃(R_p) ∪ N_p ∪ D_p of the tensor and the
// share x[i]^(p) of each row block i ∈ R_p. The run is the paper's three
// phases: All-to-All (or scheduled point-to-point) exchange of x shares,
// local block kernels, exchange + reduction of partial y shares.
//
// Only vector data moves; the tensor is never communicated (owner-compute).

#include <cstdint>
#include <vector>

#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/machine.hpp"
#include "simt/pipeline.hpp"
#include "simt/reliable_exchange.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::core {

struct ParallelRunResult {
  /// Assembled output, logical length n (padding dropped).
  std::vector<double> y;
  /// Ternary multiplications per rank — per role under a placement
  /// (Section 7.1 load balance).
  std::vector<std::uint64_t> ternary_mults;
  /// Convenience: max over ranks of words sent during this run
  /// (the quantity bounded by Theorem 5.2). Also available via the ledger.
  std::uint64_t max_words_sent = 0;
  std::uint64_t max_words_received = 0;
};

/// Runs y = A ×₂ x ×₃ x on `machine` using the given partition and vector
/// distribution. Requirements: machine.num_ranks() == part.num_processors(),
/// dist built over the same partition, x.size() == dist.logical_n(),
/// a.dim() == dist.logical_n(), every rank alive.
/// `pipeline` selects the phase schedule: kDoubleBuffered (default)
/// overlaps each chunk's pack/kernels with the previous chunk's wire
/// time; kSerialized is the historical pack-all-then-exchange order.
/// Both produce bitwise-identical y and identical ledger channels
/// (DESIGN.md §12).
ParallelRunResult parallel_sttsv(
    simt::Machine& machine, const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, const tensor::SymTensor3& a,
    const std::vector<double>& x, simt::Transport transport,
    simt::PipelineMode pipeline = simt::PipelineMode::kDoubleBuffered);

/// Same run, but communication goes through `exchanger` (the resilience
/// seam, DESIGN.md §10). With simt::DirectExchange this is the raw run
/// above; with simt::ReliableExchange the two vector phases survive
/// injected wire faults — y stays bitwise identical to the fault-free
/// run and the ledger's goodput channel stays at the fault-free value,
/// with retransmission/ACK cost accounted as overhead. A rank exceeding
/// the retry budget raises simt::FaultError (kFailFast) or is healed by
/// owner-compute replay (kDegrade); phases are labeled "x-shares" and
/// "y-partials" in any FaultReport.
///
/// `placement` hosts the partition's P roles on ranks of the machine
/// (DESIGN.md §15): placement[role] is the rank running that role; empty
/// means the identity. Kernels, x shares and the reduction stay keyed by
/// role, envelopes by host — one aggregated envelope per ordered host
/// pair and phase chunk, with co-hosted role pairs copied locally, off
/// the wire and the ledger. Contributions are reduced in sending-role
/// order, so y is bitwise identical at every placement. Every host must
/// be a live rank (PreconditionError otherwise: a dead host's traffic is
/// dropped uncharged, so running would return a silently wrong y).
ParallelRunResult parallel_sttsv(
    simt::Exchanger& exchanger, const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, const tensor::SymTensor3& a,
    const std::vector<double>& x, simt::Transport transport,
    simt::PipelineMode pipeline = simt::PipelineMode::kDoubleBuffered,
    const std::vector<std::size_t>& placement = {});

}  // namespace sttsv::core
