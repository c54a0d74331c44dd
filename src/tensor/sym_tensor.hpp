#pragma once
// Packed storage for fully symmetric 3-tensors.
//
// Only the lower tetrahedron i >= j >= k is stored (n(n+1)(n+2)/6 entries,
// ~1/6 of the dense n³), matching the paper's Section 3 representation.
// Reads/writes with arbitrary index order are routed through index sorting,
// implementing a_ijk = a_{σ(i)σ(j)σ(k)} for every permutation σ.

#include <cstddef>
#include <vector>

namespace sttsv::tensor {

/// Entries in the (non-strict) lower tetrahedron of an n×n×n symmetric
/// tensor: n(n+1)(n+2)/6. Throws PreconditionError if n(n+1)(n+2)
/// overflows std::size_t.
std::size_t tetra_count(std::size_t n);

/// Entries in the *strict* lower tetrahedron (i > j > k): n(n-1)(n-2)/6.
std::size_t strict_tetra_count(std::size_t n);

/// Linear offset of sorted indices i >= j >= k inside the packed layout:
/// idx = i(i+1)(i+2)/6 + j(j+1)/2 + k. Bijective onto [0, tetra_count(n))
/// for i < n; independent of n so slices can share coordinates.
std::size_t tetra_index(std::size_t i, std::size_t j, std::size_t k);

/// Inverse of tetra_index: recovers (i >= j >= k) from a packed offset.
void tetra_unindex(std::size_t idx, std::size_t& i, std::size_t& j,
                   std::size_t& k);

class SymTensor3 {
 public:
  /// Zero-initialized symmetric tensor of dimension n (n >= 1, and
  /// tetra_count(n) representable).
  explicit SymTensor3(std::size_t n);

  [[nodiscard]] std::size_t dim() const { return n_; }
  [[nodiscard]] std::size_t packed_size() const { return data_.size(); }

  /// Value at (i, j, k) in any index order.
  [[nodiscard]] double operator()(std::size_t i, std::size_t j,
                                  std::size_t k) const;

  /// Mutable access at (i, j, k) in any index order (one stored cell
  /// backs all six permutations).
  double& at(std::size_t i, std::size_t j, std::size_t k);

  /// Direct packed access (sorted-index order).
  [[nodiscard]] const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }
  [[nodiscard]] double packed(std::size_t idx) const;

  /// Frobenius norm accounting for symmetric multiplicity: each stored
  /// entry with t distinct indices appears 3!/(dup) times in the dense
  /// tensor.
  [[nodiscard]] double frobenius_norm() const;

 private:
  std::size_t n_;
  std::vector<double> data_;
};

}  // namespace sttsv::tensor
