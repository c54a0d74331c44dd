#pragma once
// Vectors that LIVE in Algorithm 5's distribution: rank p holds the
// share(i, p) slice of each row block i ∈ R_p. With these, iterative
// solvers (HOPM, CP gradient descent) run start-to-finish without ever
// gathering a global vector — each iteration costs one STTSV exchange
// plus O(log P) words of scalar reductions, which is how a production
// distributed-memory code would be written.

#include <vector>

#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/reliable_exchange.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::core {

class DistributedVector {
 public:
  /// Zero vector in the given distribution (kept by pointer: the
  /// distribution must outlive the vector).
  explicit DistributedVector(const partition::VectorDistribution& dist);

  /// Splits a global vector of length dist.logical_n() into shares.
  /// This models the paper's initial data placement; no communication
  /// is charged.
  static DistributedVector scatter(const partition::VectorDistribution& dist,
                                   const std::vector<double>& global);

  /// Reassembles the global vector (logical length, padding dropped).
  /// Models final output collection; no communication charged.
  [[nodiscard]] std::vector<double> gather() const;

  [[nodiscard]] const partition::VectorDistribution& distribution() const {
    return *dist_;
  }

  /// Rank p's share of row block i (i must be in R_p); length equals
  /// dist.share(i, p).length.
  [[nodiscard]] const std::vector<double>& share(std::size_t rank,
                                                 std::size_t row_block) const;
  std::vector<double>& share(std::size_t rank, std::size_t row_block);

  // --- distributed BLAS-1 (local arithmetic; reductions go through the
  // exchanger so their words are counted) ------------------------------

  /// Global dot product: local partial dots + allreduce (O(log P) words
  /// per rank).
  static double dot(simt::Exchanger& exchanger, const DistributedVector& a,
                    const DistributedVector& b);

  /// Global squared distances min(||a-b||², ||a+b||²) computed with one
  /// fused allreduce of two partials (for sign-invariant convergence
  /// tests).
  static std::pair<double, double> diff_norms2(simt::Exchanger& exchanger,
                                               const DistributedVector& a,
                                               const DistributedVector& b);

  /// x <- s·x, locally on every rank.
  void scale(double s);

  /// x <- x + alpha·other (same distribution required).
  void axpy(double alpha, const DistributedVector& other);

 private:
  const partition::VectorDistribution* dist_;
  // shares_[rank] maps row block -> slice. Flat layout: per rank, the
  // slices of its R_p blocks concatenated in R_p order.
  struct RankShares {
    std::vector<std::size_t> row_blocks;          // R_p
    std::vector<std::vector<double>> slices;      // parallel to row_blocks
  };
  std::vector<RankShares> shares_;
};

/// Algorithm 5 with persistent distribution: input and output vectors
/// stay in shares. Runs gather -> parallel_sttsv -> scatter; gather and
/// scatter are free in the paper's I/O model, so communication is
/// exactly parallel_sttsv's. Optionally reports per-rank ternary
/// multiplication counts.
DistributedVector parallel_sttsv_dist(
    simt::Exchanger& exchanger, const partition::TetraPartition& part,
    const tensor::SymTensor3& a, const DistributedVector& x,
    simt::Transport transport,
    std::vector<std::uint64_t>* ternary_out = nullptr);

}  // namespace sttsv::core
