#pragma once
// Panel variants of the local block kernels (DESIGN.md §9): apply one
// b×b×b tensor block to a *panel* of B vectors at once. Panels are
// lane-interleaved — element l of lane v lives at l*lanes + v — so the
// innermost lane loop is a contiguous SIMD-friendly run. At B = 1 the
// panel is the contiguous single-vector layout; the Algorithm-5 driver
// (core::parallel_sttsv_panel) runs every lane count through these
// kernels.
//
// The lanes run in chunk tiers, widest first. Whole chunks of the ISA's
// vector width (8 lanes with AVX-512, else 4) run the panel kernels in
// one walk of the block, so every packed tensor entry is loaded from
// memory once for all of them; whole 4-lane chunks of the lanes left
// over take one more walk (B = 12 is 8 + 4). The last 0–3 lanes (every
// lane when B < 4) run together on the core kernels, in one more walk.
// With a SIMD ISA, interior and face_ij strict rows run in fused groups
// of 4, as in the core kernels, and face_jk and central rows in groups of
// 4 that fuse the k-chunks their rows share, then finish each row alone;
// the remainder rows and the diagonal rows of face_ij and central blocks
// run alone, and so does every row of the scalar fallback (DESIGN.md
// §13.3).
//
// Contract: lane v of the output is bitwise identical to running the
// core kernels (core::apply_block_isa) on lane v alone. Both sides follow
// the canonical arithmetic order of DESIGN.md §13.1, so the contract
// holds across the scalar, AVX2 and AVX-512 instantiations in any
// combination.

#include <cstddef>
#include <cstdint>

#include "partition/blocks.hpp"
#include "simt/simd.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::core {

/// Row-block-local panel views. Slot 0 corresponds to row block c.i,
/// slot 1 to c.j, slot 2 to c.k; each is a b×lanes lane-interleaved
/// panel. For diagonal blocks the caller passes aliased pointers, as in
/// core::BlockBuffers.
struct PanelBuffers {
  const double* x[3] = {nullptr, nullptr, nullptr};
  double* y[3] = {nullptr, nullptr, nullptr};
};

/// apply_block_panel with an explicit kernel ISA (tests pin this to
/// compare instantiations; requesting an ISA the host or build lacks
/// silently falls back to the widest one it has — bitwise identical).
std::uint64_t apply_block_panel_isa(const tensor::SymTensor3& a,
                                    const partition::BlockCoord& c,
                                    std::size_t b, std::size_t lanes,
                                    const PanelBuffers& buf,
                                    simt::KernelIsa isa);

/// Accumulates the contributions of block c into the y panels for all
/// `lanes` vectors. Returns the ternary multiplication count summed over
/// lanes (lanes × the single-vector count). Dispatches by block class
/// like core::apply_block, with the ISA from simt::preferred_isa().
std::uint64_t apply_block_panel(const tensor::SymTensor3& a,
                                const partition::BlockCoord& c,
                                std::size_t b, std::size_t lanes,
                                const PanelBuffers& buf);

}  // namespace sttsv::core
