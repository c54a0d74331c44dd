#include "tensor/sym_tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "support/check.hpp"

namespace sttsv::tensor {

std::size_t tetra_count(std::size_t n) {
  std::size_t product = 0;
  STTSV_REQUIRE(n <= SIZE_MAX - 2 &&
                    !__builtin_mul_overflow(n, n + 1, &product) &&
                    !__builtin_mul_overflow(product, n + 2, &product),
                "tensor dimension too large: packed count overflows");
  return product / 6;
}

std::size_t strict_tetra_count(std::size_t n) {
  if (n < 3) return 0;
  return n * (n - 1) * (n - 2) / 6;
}

std::size_t tetra_index(std::size_t i, std::size_t j, std::size_t k) {
  STTSV_DCHECK(i >= j && j >= k, "tetra_index needs sorted indices");
  return i * (i + 1) * (i + 2) / 6 + j * (j + 1) / 2 + k;
}

void tetra_unindex(std::size_t idx, std::size_t& i, std::size_t& j,
                   std::size_t& k) {
  // Find the largest i with i(i+1)(i+2)/6 <= idx by galloping + refine.
  std::size_t lo = 0;
  std::size_t hi = 1;
  while (tetra_count(hi) <= idx) hi *= 2;
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (tetra_count(mid) <= idx) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  i = lo;
  std::size_t rest = idx - tetra_count(i);
  // Largest j with j(j+1)/2 <= rest.
  std::size_t jlo = 0;
  std::size_t jhi = i + 1;
  while (jlo + 1 < jhi) {
    const std::size_t mid = jlo + (jhi - jlo) / 2;
    if (mid * (mid + 1) / 2 <= rest) {
      jlo = mid;
    } else {
      jhi = mid;
    }
  }
  j = jlo;
  k = rest - j * (j + 1) / 2;
  STTSV_DCHECK(i >= j && j >= k, "tetra_unindex produced unsorted triple");
}

namespace {
/// Sorts so that i >= j >= k.
void sort_desc(std::size_t& i, std::size_t& j, std::size_t& k) {
  if (i < j) std::swap(i, j);
  if (j < k) std::swap(j, k);
  if (i < j) std::swap(i, j);
}
}  // namespace

SymTensor3::SymTensor3(std::size_t n) : n_(n), data_(tetra_count(n), 0.0) {
  STTSV_REQUIRE(n >= 1, "tensor dimension must be >= 1");
}

double SymTensor3::operator()(std::size_t i, std::size_t j,
                              std::size_t k) const {
  STTSV_DCHECK(i < n_ && j < n_ && k < n_, "index out of range");
  sort_desc(i, j, k);
  return data_[tetra_index(i, j, k)];
}

double& SymTensor3::at(std::size_t i, std::size_t j, std::size_t k) {
  STTSV_REQUIRE(i < n_ && j < n_ && k < n_, "index out of range");
  sort_desc(i, j, k);
  return data_[tetra_index(i, j, k)];
}

double SymTensor3::packed(std::size_t idx) const {
  STTSV_REQUIRE(idx < data_.size(), "packed index out of range");
  return data_[idx];
}

double SymTensor3::frobenius_norm() const {
  double sum = 0.0;
  for (std::size_t idx = 0; idx < data_.size(); ++idx) {
    std::size_t i = 0, j = 0, k = 0;
    tetra_unindex(idx, i, j, k);
    double multiplicity = 6.0;           // i > j > k: all 6 permutations
    if (i == j && j == k) {
      multiplicity = 1.0;
    } else if (i == j || j == k) {
      multiplicity = 3.0;
    }
    sum += multiplicity * data_[idx] * data_[idx];
  }
  return std::sqrt(sum);
}

}  // namespace sttsv::tensor
