#pragma once
// Multi-start Z-eigenpair search: SS-HOPM converges to different robust
// eigenpairs from different starts (Kolda & Mayo); running many seeded
// starts and deduplicating recovers the spectrum reachable by power
// iterations. Z-eigenpairs of odd-order tensors come in (x, λ)/(-x, -λ)
// couples, which we canonicalize before deduplication.

#include <cstdint>
#include <vector>

#include "apps/hopm.hpp"
#include "batch/plan.hpp"
#include "simt/machine.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::apps {

struct Eigenpair {
  double value = 0.0;
  std::vector<double> vector;
  double residual = 0.0;
  std::size_t hits = 0;  // how many starts converged to this pair
};

struct EigenSearchOptions {
  std::size_t num_starts = 12;
  HopmOptions hopm;              // per-start options (seed is overridden)
  double dedup_value_tol = 1e-6;
  double dedup_vector_tol = 1e-5;
  std::uint64_t seed_base = 5000;
};

/// Runs num_starts SS-HOPM instances and returns the distinct converged
/// eigenpairs, sorted by |value| descending. Non-converged starts are
/// dropped.
std::vector<Eigenpair> find_eigenpairs(const tensor::SymTensor3& a,
                                       const EigenSearchOptions& opts = {});

/// Multi-start search on the simulated machine through the batched STTSV
/// driver: the starts iterate in lockstep waves, each wave running all
/// active iterates as one batch::parallel_sttsv_batch call, so every
/// Algorithm-5 exchange is aggregated across starts (per-rank message
/// count independent of the number of active starts). Per start, the
/// iteration is arithmetically identical to hopm_parallel with seed
/// opts.seed_base + start, so the returned eigenpairs match a
/// start-by-start parallel loop bitwise. The machine must match the plan.
std::vector<Eigenpair> find_eigenpairs_batched(
    simt::Machine& machine, const batch::Plan& plan,
    const tensor::SymTensor3& a, const EigenSearchOptions& opts = {});

}  // namespace sttsv::apps
