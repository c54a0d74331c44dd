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
// The kernels are SIMD-vectorized (DESIGN.md §13): each class body is a
// template over a 4-lane vector type, instantiated once with the portable
// scalar type and once with AVX2 intrinsics, selected at runtime by
// simt::preferred_isa(). There is one configuration: register blocks of
// RJ = 4 fused j-rows for the strict rows of interior and face_ij blocks
// (DESIGN.md §13.3). One call carries 1 to 3 vectors ("lanes") through
// one walk of the block; that is how a panel's tail lanes run
// (panel_kernels.hpp). Every instantiation follows one canonical
// arithmetic order per lane, so y is *bitwise identical* across the
// scalar fallback and the AVX2 path and across lane counts — the ISA and
// the lane count change speed, never bits.
//
// All kernels produce the same ternary-multiplication count as the
// element-wise reference (Section 7.1 counting); floating-point sums may
// differ from the reference by rounding only (reassociated accumulation,
// fused multiply-adds).

#include <cstddef>
#include <cstdint>

#include "partition/blocks.hpp"
#include "simt/simd.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::core {

/// Most lanes one core kernel call carries: the lanes a panel leaves
/// after its whole simd::kLanes chunks.
inline constexpr std::size_t kMaxBlockLanes = simt::simd::kLanes - 1;

/// Row-block-local views for a block kernel invocation. Slot 0 corresponds
/// to row block c.i, slot 1 to c.j, slot 2 to c.k. For diagonal blocks the
/// caller passes aliased pointers (the same buffer in every slot of an
/// equal coordinate). Lane l of slot s starts at x[s] + l·lane_stride
/// (likewise y); the default is one contiguous lane.
struct BlockBuffers {
  const double* x[3] = {nullptr, nullptr, nullptr};
  double* y[3] = {nullptr, nullptr, nullptr};
  std::size_t lanes = 1;        ///< 1 ≤ lanes ≤ kMaxBlockLanes
  std::size_t lane_stride = 0;  ///< >= b when lanes > 1
};

/// Accumulates all contributions of the lower-tetra entries of block c
/// (edge length b) of tensor `a` into the y buffers of every lane. Entries
/// with any global index >= a.dim() are padding and contribute nothing.
/// Returns the number of ternary multiplications performed (Section 7.1
/// counting; lanes × the one-lane count). Throws PreconditionError on an
/// unsorted coordinate, an unbound slot, a lane count outside
/// [1, kMaxBlockLanes], overlapping lanes, or diagonal slots that do not
/// alias. Runs the kernels of an explicit ISA — kernel-level tests and
/// benches pin it to compare instantiations; requesting kAvx2 on a host
/// or build without AVX2 kernels silently falls back to scalar (bitwise
/// identical).
std::uint64_t apply_block_isa(const tensor::SymTensor3& a,
                              const partition::BlockCoord& c, std::size_t b,
                              const BlockBuffers& buf, simt::KernelIsa isa);

/// apply_block_isa with the ISA from simt::preferred_isa().
std::uint64_t apply_block(const tensor::SymTensor3& a,
                          const partition::BlockCoord& c, std::size_t b,
                          const BlockBuffers& buf);

/// The seed element-wise kernel: one loop nest with per-element
/// multiplicity branches, valid for every block class and for any slot
/// binding. Kept as the golden reference for tests and as the baseline
/// the kernel benches (BENCH_kernels.json) measure the specialized
/// kernels against. One lane only.
std::uint64_t apply_block_generic(const tensor::SymTensor3& a,
                                  const partition::BlockCoord& c,
                                  std::size_t b, const BlockBuffers& buf);

}  // namespace sttsv::core
