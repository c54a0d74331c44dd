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
//
// parallel_sttsv_panel is the one driver of these phases (DESIGN.md §9):
// it runs a panel of B >= 1 vectors, so a single-vector run is B = 1,
// batch::parallel_sttsv_batch a Plan's cached schedule, and
// parallel_symmetric_mttkrp its r columns as r lanes.

#include <cstdint>
#include <vector>

#include "partition/exchange_walk.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/machine.hpp"
#include "simt/reliable_exchange.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::core {

struct ParallelRunResult {
  /// Assembled output, logical length n (padding dropped).
  std::vector<double> y;
  /// Ternary multiplications per rank — per role under a placement
  /// (Section 7.1 load balance). Words moved are on the machine's ledger.
  std::vector<std::uint64_t> ternary_mults;
};

struct PanelRunResult {
  /// y[v] is the assembled output for input vector v, logical length n.
  std::vector<std::vector<double>> y;
  /// Ternary multiplications per role, summed over the panel.
  std::vector<std::uint64_t> ternary_mults;
};

/// Algorithm 5's message pattern lifted from roles onto hosts (DESIGN.md
/// §9.2), built once from a walk and a role placement, since none of it
/// depends on x. It points into `walk`, which must outlive it.
struct HostSchedule {
  static constexpr std::size_t kInPlace = static_cast<std::size_t>(-1);
  /// One walk record, role `role` to role ex->peer. Its partial y sits at
  /// per-vector word `offset` of delivery `slot` in the receiving host's y
  /// inbox, or (kInPlace: co-hosted, no y words) in the sender's y blocks.
  struct Leg {
    std::size_t role = 0;
    const partition::ExchangeWalk::PeerExchange* ex = nullptr;
    std::size_t slot = kInPlace;
    std::size_t offset = 0;
  };
  /// Everything host `from` sends host `to` per phase, in the order both
  /// ends replay: sending roles, then receiving roles ascending.
  struct Route {
    std::size_t from = 0;
    std::size_t to = 0;
    std::vector<Leg> legs;
    std::size_t x_words = 0;
    std::size_t y_words = 0;
  };

  /// placement[role] hosts that role (empty: the identity); a wrong length
  /// or a host past walk.num_processors() is a PreconditionError.
  explicit HostSchedule(const partition::ExchangeWalk& walk,
                        const std::vector<std::size_t>& placement = {});
  HostSchedule(const HostSchedule&) = delete;  // inboxes point at routes

  const partition::ExchangeWalk& walk;
  std::vector<std::size_t> hosts;               // ranks with a role, ascending
  std::vector<std::size_t> host_of;             // per role
  std::vector<std::vector<std::size_t>> roles;  // per host, ascending
  std::vector<std::vector<Route>> routes;       // per host, `to` ascending
  std::vector<std::vector<Leg>> local;          // per host: co-hosted legs
  /// Per host, the routes with words for it in each phase, senders ascending.
  std::vector<std::vector<const Route*>> x_inbox;
  std::vector<std::vector<const Route*>> y_inbox;
  /// Per receiving role, every walk record into it, sending roles ascending.
  std::vector<std::vector<Leg>> contributions;
};

/// Runs y_v = A ×₂ x_v ×₃ x_v for the panel {x_0..x_{B-1}} (B >= 1) in
/// one Algorithm-5 pass over `schedule` (of a walk of part and dist). Each
/// phase is one Exchanger::exchange() call (DESIGN.md §12), and the B
/// shares travelling between two hosts ride in one aggregated message
/// per phase: messages are those of a single-vector run, words are B
/// times its words. An inbox that differs from the schedule's (a lost or
/// resized delivery) is an InternalError, never a wrong y. Panels are
/// lane-interleaved (element g of lane v at g·B + v), so B = 1 is the
/// contiguous single-vector layout. Block kernels are
/// core::apply_block_panel: lane v is bitwise identical whatever B is.
/// Transports and placements behave as described for parallel_sttsv
/// below; phases are labeled "x-panel" and "y-panel" in any FaultReport.
PanelRunResult parallel_sttsv_panel(
    simt::Exchanger& exchanger, const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, const HostSchedule& schedule,
    const tensor::SymTensor3& a, const std::vector<std::vector<double>>& x,
    simt::Transport transport);

/// The same run over a schedule built for this call from walk, placement.
PanelRunResult parallel_sttsv_panel(
    simt::Exchanger& exchanger, const partition::TetraPartition& part,
    const partition::VectorDistribution& dist,
    const partition::ExchangeWalk& walk, const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& x, simt::Transport transport,
    const std::vector<std::size_t>& placement = {});

/// Runs y = A ×₂ x ×₃ x on `machine` using the given partition and vector
/// distribution. Requirements: machine.num_ranks() == part.num_processors(),
/// dist built over the same partition, x.size() == dist.logical_n(),
/// a.dim() == dist.logical_n(), every rank alive.
ParallelRunResult parallel_sttsv(
    simt::Machine& machine, const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, const tensor::SymTensor3& a,
    const std::vector<double>& x, simt::Transport transport);

/// Same run, but communication goes through `exchanger` (the resilience
/// seam, DESIGN.md §10). With simt::DirectExchange this is the raw run
/// above; with simt::ReliableExchange the two vector phases survive
/// injected wire faults — y stays bitwise identical to the fault-free
/// run and the ledger's goodput channel stays at the fault-free value,
/// with retransmission/ACK cost accounted as overhead. A rank exceeding
/// the retry budget raises simt::FaultError (kFailFast) or is healed by
/// owner-compute replay (kDegrade); phases are labeled "x-panel" and
/// "y-panel" in any FaultReport. This is parallel_sttsv_panel at B = 1.
///
/// `placement` hosts the partition's P roles on ranks of the machine
/// (DESIGN.md §15): placement[role] is the rank running that role; empty
/// means the identity. Kernels, x shares and the reduction stay keyed by
/// role, envelopes by host — one aggregated envelope per ordered host
/// pair and phase, with co-hosted role pairs copied locally, off
/// the wire and the ledger. Contributions are reduced in sending-role
/// order, so y is bitwise identical at every placement. Every host must
/// be a live rank (PreconditionError otherwise: a dead host's traffic is
/// dropped uncharged, so running would return a silently wrong y).
ParallelRunResult parallel_sttsv(
    simt::Exchanger& exchanger, const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, const tensor::SymTensor3& a,
    const std::vector<double>& x, simt::Transport transport,
    const std::vector<std::size_t>& placement = {});

}  // namespace sttsv::core
