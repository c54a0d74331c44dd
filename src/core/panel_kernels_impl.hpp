#pragma once
// Templated bodies of the lane-blocked panel kernels (DESIGN.md §9, §13).
//
// Panels are lane-interleaved — element l of lane v lives at l*stride+v —
// so a chunk of simd::kLanes panel lanes is one contiguous vector load.
// Each kernel is a template over the 4-lane vector type V and runs
// `chunks` whole lane chunks in one walk of the block: for each row gi,
// every chunk in turn sweeps that row's slab (at most b×b entries) while
// it is still in L1/L2, so the block streams from memory once per panel
// rather than once per chunk. Chunks never mix, and each lane meets the
// block entries in the same order as a one-chunk walk. The 1–3 lanes
// left over after the last whole chunk run on the core kernels instead,
// all of them in one walk of the block (panel_kernels.cpp). The bodies
// are instantiated in panel_kernels.cpp (VecScalar, always built) and
// panel_kernels_avx2.cpp (VecAvx2, -mavx2). Both TUs are compiled with
// -ffp-contract=off.
//
// Bitwise contract: lane v of the output equals running the single-vector
// core kernels on lane v alone, bit for bit. The core kernels follow the
// canonical arithmetic order of DESIGN.md §13.1 (4 k-partial sums over
// full 4-chunks combined as (p0+p1)+(p2+p3), sequential leftovers, one
// rounded mul+add per elementwise update); the panel kernels replay that
// exact per-lane scalar sequence with the k-partials held as 4 lane
// vectors — vector lane = panel lane, partial index = k position mod 4.

#include <cstddef>
#include <cstdint>

#include "core/block_kernels_impl.hpp"
#include "simt/simd.hpp"

namespace sttsv::core::detail {

/// One strict row over a k-run of length kb for one lane chunk: returns
/// the per-lane dot product Σ_lk row[lk]·xk[lk] in the canonical partial
/// order and applies yk[lk] += cy·row[lk] elementwise. Per lane this is
/// exactly core::detail::strict_rows with RJ = 1.
template <class V>
inline V panel_strict_row(const double* STTSV_RESTRICT row, std::size_t kb,
                          V cy, const double* STTSV_RESTRICT xk,
                          double* STTSV_RESTRICT yk, std::size_t stride) {
  V acc[simt::simd::kLanes];
  for (auto& a : acc) a = V::zero();
  std::size_t lk = 0;
  for (; lk + simt::simd::kLanes <= kb; lk += simt::simd::kLanes) {
    for (std::size_t p = 0; p < simt::simd::kLanes; ++p) {
      const V vv = V::broadcast(row[lk + p]);
      double* yp = yk + (lk + p) * stride;
      acc[p] = acc[p] + vv * V::load(xk + (lk + p) * stride);
      (V::load(yp) + cy * vv).store(yp);
    }
  }
  // Canonical combine, then sequential leftovers (cf. VecScalar::reduce).
  V accv = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (; lk < kb; ++lk) {
    const V vv = V::broadcast(row[lk]);
    double* yp = yk + lk * stride;
    accv = accv + vv * V::load(xk + lk * stride);
    (V::load(yp) + cy * vv).store(yp);
  }
  return accv;
}

/// One face_jk/central row: strict run of lj elements plus the gk == gj
/// tail element at row[lj]; mirrors core::detail::face_jk_row.
template <class V>
inline void panel_face_jk_row(const double* STTSV_RESTRICT row,
                              std::size_t lj, V xiv, V xjv,
                              const double* STTSV_RESTRICT xjk,
                              double* STTSV_RESTRICT yjk, V& yi_row,
                              std::size_t stride) {
  const V two = V::broadcast(2.0);
  const V cy = (two * xiv) * xjv;
  const V acc = panel_strict_row<V>(row, lj, cy, xjk, yjk, stride);
  const V vt = V::broadcast(row[lj]);
  yi_row = yi_row + ((two * xjv) * acc + (vt * xjv) * xjv);
  double* yp = yjk + lj * stride;
  (V::load(yp) + ((two * xiv) * acc + ((two * vt) * xiv) * xjv)).store(yp);
}

template <class V>
void interior_panel(const double* STTSV_RESTRICT data, std::size_t i0,
                    std::size_t i_end, std::size_t j0, std::size_t j_end,
                    std::size_t k0, std::size_t k_end,
                    const double* STTSV_RESTRICT xi,
                    const double* STTSV_RESTRICT xj,
                    const double* STTSV_RESTRICT xk,
                    double* STTSV_RESTRICT yi, double* STTSV_RESTRICT yj,
                    double* STTSV_RESTRICT yk, std::size_t stride,
                    std::size_t chunks) {
  const std::size_t kb = k_end - k0;
  const std::size_t width = chunks * simt::simd::kLanes;
  const V two = V::broadcast(2.0);
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    for (std::size_t v0 = 0; v0 < width; v0 += simt::simd::kLanes) {
      const V xiv = V::load(xi + li * stride + v0);
      V yi_row = V::zero();
      for (std::size_t gj = j0; gj < j_end; ++gj) {
        const std::size_t lj = gj - j0;
        const V xjv = V::load(xj + lj * stride + v0);
        const double* row = data + packed_row_base(gi, gj) + k0;
        const V cy = (two * xiv) * xjv;
        const V acc =
            panel_strict_row<V>(row, kb, cy, xk + v0, yk + v0, stride);
        yi_row = yi_row + xjv * acc;
        double* yp = yj + lj * stride + v0;
        (V::load(yp) + (two * xiv) * acc).store(yp);
      }
      double* yp = yi + li * stride + v0;
      (V::load(yp) + two * yi_row).store(yp);
    }
  }
}

template <class V>
void face_ij_panel(const double* STTSV_RESTRICT data, std::size_t i0,
                   std::size_t i_end, std::size_t k0, std::size_t k_end,
                   const double* STTSV_RESTRICT xij,
                   const double* STTSV_RESTRICT xk,
                   double* STTSV_RESTRICT yij, double* STTSV_RESTRICT yk,
                   std::size_t stride, std::size_t chunks) {
  const std::size_t kb = k_end - k0;
  const std::size_t width = chunks * simt::simd::kLanes;
  const V two = V::broadcast(2.0);
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    for (std::size_t v0 = 0; v0 < width; v0 += simt::simd::kLanes) {
      const V xiv = V::load(xij + li * stride + v0);
      V yi_row = V::zero();
      for (std::size_t gj = i0; gj < gi; ++gj) {
        const std::size_t lj = gj - i0;
        const V xjv = V::load(xij + lj * stride + v0);
        const double* row = data + packed_row_base(gi, gj) + k0;
        const V cy = (two * xiv) * xjv;
        const V acc =
            panel_strict_row<V>(row, kb, cy, xk + v0, yk + v0, stride);
        yi_row = yi_row + xjv * acc;
        double* yp = yij + lj * stride + v0;
        (V::load(yp) + (two * xiv) * acc).store(yp);
      }
      // gj == gi diagonal row, hoisted exactly as in the single kernel.
      const double* row = data + packed_row_base(gi, gi) + k0;
      const V cy = xiv * xiv;
      const V acc =
          panel_strict_row<V>(row, kb, cy, xk + v0, yk + v0, stride);
      double* yp = yij + li * stride + v0;
      (V::load(yp) + two * (yi_row + xiv * acc)).store(yp);
    }
  }
}

template <class V>
void face_jk_panel(const double* STTSV_RESTRICT data, std::size_t i0,
                   std::size_t i_end, std::size_t j0, std::size_t j_end,
                   const double* STTSV_RESTRICT xi,
                   const double* STTSV_RESTRICT xjk,
                   double* STTSV_RESTRICT yi, double* STTSV_RESTRICT yjk,
                   std::size_t stride, std::size_t chunks) {
  const std::size_t width = chunks * simt::simd::kLanes;
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const std::size_t gi_base = gi * (gi + 1) * (gi + 2) / 6;
    for (std::size_t v0 = 0; v0 < width; v0 += simt::simd::kLanes) {
      const V xiv = V::load(xi + li * stride + v0);
      V yi_row = V::zero();
      for (std::size_t gj = j0; gj < j_end; ++gj) {
        const std::size_t lj = gj - j0;
        panel_face_jk_row<V>(data + gi_base + gj * (gj + 1) / 2 + j0, lj,
                             xiv, V::load(xjk + lj * stride + v0), xjk + v0,
                             yjk + v0, yi_row, stride);
      }
      double* yp = yi + li * stride + v0;
      (V::load(yp) + yi_row).store(yp);
    }
  }
}

/// Central diagonal block: all three slots alias one x/y panel pair.
/// Mirrors core::detail::central_kernel (face_jk rows below the diagonal
/// row plus the central element) — replacing the seed's element-wise
/// generic panel walk so central lanes stay bitwise-tied to the core.
template <class V>
void central_panel(const double* STTSV_RESTRICT data, std::size_t i0,
                   std::size_t i_end, const double* STTSV_RESTRICT x,
                   double* STTSV_RESTRICT y, std::size_t stride,
                   std::size_t chunks) {
  const std::size_t width = chunks * simt::simd::kLanes;
  const V two = V::broadcast(2.0);
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const std::size_t gi_base = gi * (gi + 1) * (gi + 2) / 6;
    for (std::size_t v0 = 0; v0 < width; v0 += simt::simd::kLanes) {
      const V xiv = V::load(x + li * stride + v0);
      V yi_row = V::zero();
      for (std::size_t gj = i0; gj < gi; ++gj) {
        const std::size_t lj = gj - i0;
        panel_face_jk_row<V>(data + gi_base + gj * (gj + 1) / 2 + i0, lj,
                             xiv, V::load(x + lj * stride + v0), x + v0,
                             y + v0, yi_row, stride);
      }
      const double* row = data + gi_base + gi * (gi + 1) / 2 + i0;
      const V cy = xiv * xiv;
      const V acc = panel_strict_row<V>(row, li, cy, x + v0, y + v0, stride);
      const V vt = V::broadcast(row[li]);
      double* yp = y + li * stride + v0;
      (V::load(yp) + ((yi_row + (two * xiv) * acc) + (vt * xiv) * xiv))
          .store(yp);
    }
  }
}

/// Function-pointer table of one ISA instantiation: one entry point per
/// block class. Every entry ends with the panel stride and the number of
/// whole lane chunks to run.
struct PanelVTable {
  using InteriorFn = void (*)(const double*, std::size_t, std::size_t,
                              std::size_t, std::size_t, std::size_t,
                              std::size_t, const double*, const double*,
                              const double*, double*, double*, double*,
                              std::size_t, std::size_t);
  /// Both face classes: one aliased slot pair plus one distinct slot.
  using FaceFn = void (*)(const double*, std::size_t, std::size_t,
                          std::size_t, std::size_t, const double*,
                          const double*, double*, double*, std::size_t,
                          std::size_t);
  using CentralFn = void (*)(const double*, std::size_t, std::size_t,
                             const double*, double*, std::size_t,
                             std::size_t);
  InteriorFn interior;
  FaceFn face_ij;
  FaceFn face_jk;
  CentralFn central;
};

template <class V>
PanelVTable make_panel_vtable() {
  return {&interior_panel<V>, &face_ij_panel<V>, &face_jk_panel<V>,
          &central_panel<V>};
}

/// Defined in panel_kernels_avx2.cpp when STTSV_HAVE_AVX2_KERNELS.
const PanelVTable& avx2_panel_vtable();

}  // namespace sttsv::core::detail
