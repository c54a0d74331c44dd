#pragma once
// Local block kernels: lines 24-36 of Algorithm 5. Each owned b×b×b block
// of the symmetric tensor updates (up to) three local y row blocks using
// (up to) three local x row blocks, with the Algorithm-4 multiplicity
// rules applied at the *element* level, so diagonal blocks are handled by
// the same entry point.
//
// apply_block classifies the block once by its coordinate pattern and
// dispatches to a kernel specialized for that class (DESIGN.md §8):
//
//   interior   i > j > k    every element is strict — branch-free 3-update
//                           loop nest, k-innermost, register accumulation;
//   face i==j  i == j > k   strict rows plus a gi == gj diagonal row
//                           (2-update) hoisted out of the inner loop;
//   face j==k  i > j == k   strict runs plus a gk == gj tail element
//                           (2-update) hoisted out of the inner loop;
//   central    i == j == k  face_jk-style rows plus a diagonal row and the
//                           central element, all on one aliased buffer.
//
// Since PR 6 the kernels are SIMD-vectorized (DESIGN.md §13): each class
// body is a template over a 4-lane vector type, instantiated once with
// the portable scalar type and once with AVX2/FMA intrinsics, selected at
// runtime by simt::preferred_isa(). Every instantiation follows one
// canonical arithmetic order, so y is *bitwise identical* across the
// scalar fallback, the AVX2 path, and every register-block shape — the
// choice in KernelOptions changes speed, never bits. The one exception is
// the opt-in KernelMath::kCompressed bilinear formulation (arXiv
// 1707.04618), which legitimately reassociates and is off by default.
//
// All standard-math kernels produce the same ternary-multiplication count
// as the element-wise reference (Section 7.1 counting); floating-point
// sums may differ from the reference by rounding only (reassociated
// accumulation).

#include <cstddef>
#include <cstdint>

#include "partition/blocks.hpp"
#include "simt/simd.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::core {

/// Row-block-local views for a block kernel invocation. Slot 0 corresponds
/// to row block c.i, slot 1 to c.j, slot 2 to c.k. For diagonal blocks the
/// caller passes aliased pointers (same buffer in multiple slots).
struct BlockBuffers {
  const double* x[3] = {nullptr, nullptr, nullptr};
  double* y[3] = {nullptr, nullptr, nullptr};
};

/// Arithmetic formulation of the kernels.
enum class KernelMath : std::uint8_t {
  /// Three ternary products per strict entry; canonical order, bitwise
  /// reproducible across ISAs and register-block shapes.
  kStandard = 0,
  /// Symmetry-compressed bilinear formulation (arXiv 1707.04618) for
  /// interior blocks: one bilinear product per packed entry plus
  /// adds-only marginals — bi·bj·bk + 4(bi·bj+bi·bk+bj·bk) + 3(bi+bj+bk)
  /// multiplies versus 3·bi·bj·bk. Reassociates (results match the
  /// standard kernels to rounding only, see DESIGN.md §13.4); non-interior
  /// classes fall back to the standard kernels.
  kCompressed = 1,
};

/// Tunable kernel configuration. The defaults are safe everywhere; the
/// register-block shapes rj_* (rows of j fused per strict-row sweep, one
/// of 1/2/4) are what `bench_kernels --tune` calibrates.
struct KernelOptions {
  simt::KernelIsa isa = simt::preferred_isa();
  KernelMath math = KernelMath::kStandard;
  std::uint8_t rj_interior = 4;
  std::uint8_t rj_face_ij = 2;
};

/// Process-wide kernel options used by apply_block (thread-safe).
KernelOptions kernel_options();
/// Installs new process-wide options. Requires rj_* ∈ {1, 2, 4}.
/// `math` reaches only direct apply_block callers: the distributed
/// Algorithm-5 driver runs core::apply_block_panel, which pins kStandard
/// at every lane count (the ISA and register-block shapes still apply).
void set_kernel_options(const KernelOptions& opts);

/// Accumulates all contributions of the lower-tetra entries of block c
/// (edge length b) of tensor `a` into the y buffers. Entries with any
/// global index >= a.dim() are padding and contribute nothing. Returns
/// the number of ternary multiplications performed (Section 7.1 counting;
/// for compressed math, the compressed count documented above).
/// Dispatches on the explicit options — kernel-level tests and the tuner
/// use this to pin ISA, math, and register-block shape.
std::uint64_t apply_block_ex(const tensor::SymTensor3& a,
                             const partition::BlockCoord& c, std::size_t b,
                             const BlockBuffers& buf,
                             const KernelOptions& opts);

/// apply_block_ex with the process-wide kernel_options().
std::uint64_t apply_block(const tensor::SymTensor3& a,
                          const partition::BlockCoord& c, std::size_t b,
                          const BlockBuffers& buf);

/// The seed element-wise kernel: one loop nest with per-element
/// multiplicity branches, valid for every block class. Kept as the
/// golden reference for tests and as the baseline the kernel benches
/// (BENCH_kernels.json) measure the specialized kernels against.
std::uint64_t apply_block_generic(const tensor::SymTensor3& a,
                                  const partition::BlockCoord& c,
                                  std::size_t b, const BlockBuffers& buf);

}  // namespace sttsv::core
