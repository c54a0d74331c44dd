#pragma once
// Templated bodies of the lane-blocked panel kernels (DESIGN.md §9, §13).
//
// Panels are lane-interleaved — element l of lane v lives at l*stride+v —
// so a chunk of V::kWidth panel lanes is one contiguous vector load. Each
// kernel is a template over the vector type V and runs `chunks` whole
// lane chunks in one walk of the block: for each row gi, every chunk in
// turn sweeps that row's slab (at most b×b entries) while it is still in
// L1/L2, so the block streams from memory once per panel rather than once
// per chunk. Chunks never mix, and each lane meets the block entries in
// the same order as a one-chunk walk. The bodies are instantiated in
// panel_kernels.cpp (VecScalar, 4 lanes, always built),
// panel_kernels_avx2.cpp (VecAvx2, 4 lanes, -mavx2 -mfma) and
// panel_kernels_avx512.cpp (VecAvx512, 8 lanes, -mavx512f). All three TUs
// are compiled with -ffp-contract=off. The dispatcher runs the widest
// chunks first, then 4-lane chunks, and hands the last 0–3 lanes to the
// core kernels (panel_kernels.cpp).
//
// Register shape (DESIGN.md §13.3): rows run in groups of
// kPanelRowBlock<V> per chunk (4 for the SIMD types, 1 for VecScalar).
// The strict rows of interior and face_ij blocks fuse like the core
// kernels'; a group of face_jk or central rows, whose lengths differ,
// fuses the whole k-chunks its rows share and then completes each row
// alone. Remainder rows and face_ij's and central's diagonal rows run
// alone.
//
// Bitwise contract: lane v of the output equals running the single-vector
// core kernels on lane v alone, bit for bit. The core kernels follow the
// canonical arithmetic order of DESIGN.md §13.1 (4 k-partial sums over
// full 4-chunks combined as (p0+p1)+(p2+p3), sequential leftovers, one
// fused multiply-add per accumulate and per elementwise update, rows
// applied to y in ascending j order); the panel kernels replay that exact
// per-lane scalar sequence with the k-partials held as 4 lane vectors per
// row — vector lane = panel lane, partial index = k position mod 4 — so
// the vector width and the row fusion change speed, never bits.

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "core/block_kernels_impl.hpp"
#include "core/panel_kernels.hpp"
#include "simt/simd.hpp"

namespace sttsv::core::detail {

/// Whole k-chunks [lk, lk_end) of RJ fused rows for one lane chunk (lk
/// and lk_end multiples of 4) into the rows' open k-partials: at each k
/// position loads the x_k and y_k lane vectors once, then for each row r
/// in ascending order accumulates part[r][p] += a·x_k (p = position mod 4)
/// and applies y_k += cy[r]·a, one fmadd each; stores y_k once.
template <class V, std::size_t RJ>
inline void panel_rows_chunks(const double* const* rows, std::size_t lk,
                              std::size_t lk_end, const V* cy,
                              const double* STTSV_RESTRICT xk,
                              double* STTSV_RESTRICT yk, std::size_t stride,
                              V (*part)[simt::simd::kLanes]) {
  constexpr std::size_t kP = simt::simd::kLanes;
  for (; lk < lk_end; lk += kP) {
    for (std::size_t p = 0; p < kP; ++p) {
      const V xv = V::load(xk + (lk + p) * stride);
      double* yp = yk + (lk + p) * stride;
      V yv = V::load(yp);
      for (std::size_t r = 0; r < RJ; ++r) {
        const V vv = V::broadcast(rows[r][lk + p]);
        part[r][p] = fmadd(vv, xv, part[r][p]);
        yv = fmadd(cy[r], vv, yv);
      }
      yv.store(yp);
    }
  }
}

/// Finishes RJ rows of length kb whose whole chunks below lk are already
/// in `part`: the remaining whole chunks, the canonical combine
/// (p0+p1)+(p2+p3) into acc (cf. VecScalar::reduce), then the sequential
/// leftovers, x_k and y_k loaded once per k position for all RJ rows.
template <class V, std::size_t RJ>
inline void panel_rows_complete(const double* const* rows, std::size_t lk,
                                std::size_t kb, const V* cy,
                                const double* STTSV_RESTRICT xk,
                                double* STTSV_RESTRICT yk,
                                std::size_t stride,
                                V (*part)[simt::simd::kLanes], V* acc) {
  const std::size_t whole = kb - kb % simt::simd::kLanes;
  panel_rows_chunks<V, RJ>(rows, lk, whole, cy, xk, yk, stride, part);
  for (std::size_t r = 0; r < RJ; ++r) {
    acc[r] = (part[r][0] + part[r][1]) + (part[r][2] + part[r][3]);
  }
  for (lk = whole; lk < kb; ++lk) {
    const V xv = V::load(xk + lk * stride);
    double* yp = yk + lk * stride;
    V yv = V::load(yp);
    for (std::size_t r = 0; r < RJ; ++r) {
      const V vv = V::broadcast(rows[r][lk]);
      acc[r] = fmadd(vv, xv, acc[r]);
      yv = fmadd(cy[r], vv, yv);
    }
    yv.store(yp);
  }
}

/// RJ fused strict rows over a k-run of length kb for one lane chunk: for
/// each row r returns acc[r] = Σ_lk rows[r][lk]·xk[lk] per lane in the
/// canonical partial order, and applies yk[lk] += cy[r]·rows[r][lk]
/// elementwise in ascending r. Each row keeps its own 4 k-partials. Per
/// lane this is exactly core::detail::strict_rows.
template <class V, std::size_t RJ>
inline void panel_strict_rows(const double* const* rows, std::size_t kb,
                              const V (&cy)[RJ],
                              const double* STTSV_RESTRICT xk,
                              double* STTSV_RESTRICT yk, std::size_t stride,
                              V (&acc)[RJ]) {
  V part[RJ][simt::simd::kLanes];
  for (auto& row : part) {
    for (auto& p : row) p = V::zero();
  }
  panel_rows_complete<V, RJ>(rows, 0, kb, cy, xk, yk, stride, part, acc);
}

/// The strict rows gj ∈ [gj, gj_end) of row gi (packed base gi_base) over
/// the k-run [k0, k0 + kb) for one lane chunk, in ascending j order:
/// groups of RJ fused rows, then the remainder one row at a time. Slot
/// j's lane vectors xj/yj are indexed from j_base; yi_row collects
/// Σ x_j·acc. Mirrors core::detail::strict_row_run.
template <class V, std::size_t RJ>
inline void panel_strict_row_run(const double* STTSV_RESTRICT data,
                                 std::size_t gi_base, std::size_t gj,
                                 std::size_t gj_end, std::size_t j_base,
                                 std::size_t k0, std::size_t kb, V xiv,
                                 const double* STTSV_RESTRICT xj,
                                 const double* STTSV_RESTRICT xk,
                                 double* STTSV_RESTRICT yj,
                                 double* STTSV_RESTRICT yk,
                                 std::size_t stride, V& yi_row) {
  const V two_xi = V::broadcast(2.0) * xiv;
  for (; gj + RJ <= gj_end; gj += RJ) {
    const double* rows[RJ];
    V xjv[RJ];
    V cy[RJ];
    V acc[RJ];
    for (std::size_t r = 0; r < RJ; ++r) {
      rows[r] = data + gi_base + (gj + r) * (gj + r + 1) / 2 + k0;
      xjv[r] = V::load(xj + (gj + r - j_base) * stride);
      cy[r] = two_xi * xjv[r];
    }
    // Next group's row heads, as in core::detail::strict_row_run.
    if (RJ > 1 && gj + 2 * RJ <= gj_end) {
      for (std::size_t r = 0; r < RJ; ++r) {
        const double* next =
            data + gi_base + (gj + RJ + r) * (gj + RJ + r + 1) / 2 + k0;
        __builtin_prefetch(next);
        __builtin_prefetch(next + 8);
      }
    }
    panel_strict_rows<V, RJ>(rows, kb, cy, xk, yk, stride, acc);
    for (std::size_t r = 0; r < RJ; ++r) {
      yi_row = fmadd(xjv[r], acc[r], yi_row);
      double* yp = yj + (gj + r - j_base) * stride;
      fmadd(two_xi, acc[r], V::load(yp)).store(yp);
    }
  }
  if constexpr (RJ > 1) {  // remainder rows: RJ = 1, same order
    panel_strict_row_run<V, 1>(data, gi_base, gj, gj_end, j_base, k0, kb,
                               xiv, xj, xk, yj, yk, stride, yi_row);
  }
}

/// The face_jk-class rows gj ∈ [gj, gj_end) of row gi (packed base
/// gi_base) for one lane chunk: row gj is a strict run over the k
/// positions [j0, gj) — local length lj = gj − j0 — plus the gk == gj
/// tail element at local position lj. Slots j and k alias (xjk/yjk,
/// indexed from j0); yi_row collects the row sums. A group of RJ rows
/// runs the whole chunks below its first row's length fused, then each
/// row in ascending j order completes alone: its remaining whole chunk,
/// the combine, its leftovers and its tail element. The tails land at
/// positions ≥ the first row's length, which the fused prefix never
/// touches, so every y element still receives its updates in ascending
/// row order. Remainder rows run at RJ = 1. Per lane this is exactly a
/// sequence of core::detail::face_jk_row calls.
template <class V, std::size_t RJ>
inline void panel_tail_row_run(const double* STTSV_RESTRICT data,
                               std::size_t gi_base, std::size_t gj,
                               std::size_t gj_end, std::size_t j0, V xiv,
                               const double* STTSV_RESTRICT xjk,
                               double* STTSV_RESTRICT yjk,
                               std::size_t stride, V& yi_row) {
  constexpr std::size_t kP = simt::simd::kLanes;
  const V two = V::broadcast(2.0);
  const V two_xi = two * xiv;
  for (; gj + RJ <= gj_end; gj += RJ) {
    const std::size_t lj = gj - j0;
    const double* rows[RJ];
    V xjv[RJ];
    V cy[RJ];
    V part[RJ][kP];
    for (std::size_t r = 0; r < RJ; ++r) {
      rows[r] = data + gi_base + (gj + r) * (gj + r + 1) / 2 + j0;
      xjv[r] = V::load(xjk + (lj + r) * stride);
      cy[r] = two_xi * xjv[r];
      for (auto& p : part[r]) p = V::zero();
    }
    const std::size_t prefix = lj - lj % kP;
    panel_rows_chunks<V, RJ>(rows, 0, prefix, cy, xjk, yjk, stride, part);
    // Row r alone: the rest of its strict run, then its tail element.
    const auto complete = [&]<std::size_t r>(
                              std::integral_constant<std::size_t, r>) {
      V acc;
      panel_rows_complete<V, 1>(rows + r, prefix, lj + r, cy + r, xjk, yjk,
                                stride, part + r, &acc);
      const V vt = V::broadcast(rows[r][lj + r]);
      yi_row = yi_row + ((two * xjv[r]) * acc + (vt * xjv[r]) * xjv[r]);
      double* yp = yjk + (lj + r) * stride;
      (V::load(yp) + (two_xi * acc + ((two * vt) * xiv) * xjv[r])).store(yp);
    };
    // Unrolled at compile time, so every partial keeps a constant index
    // (and its register).
    [&]<std::size_t... R>(std::index_sequence<R...>) {
      (complete(std::integral_constant<std::size_t, R>{}), ...);
    }(std::make_index_sequence<RJ>{});
  }
  if constexpr (RJ > 1) {  // remainder rows: RJ = 1, same order
    panel_tail_row_run<V, 1>(data, gi_base, gj, gj_end, j0, xiv, xjk, yjk,
                             stride, yi_row);
  }
}

/// Interior block. RJ is the row-group size of every class:
/// kPanelRowBlock<V> in every dispatched instantiation, 1 in
/// unfused_panel_vtable().
template <class V, std::size_t RJ>
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
  const std::size_t width = chunks * V::kWidth;
  const V two = V::broadcast(2.0);
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const std::size_t gi_base = gi * (gi + 1) * (gi + 2) / 6;
    for (std::size_t v0 = 0; v0 < width; v0 += V::kWidth) {
      const V xiv = V::load(xi + li * stride + v0);
      V yi_row = V::zero();
      panel_strict_row_run<V, RJ>(data, gi_base, j0, j_end, j0, k0, kb, xiv,
                                  xj + v0, xk + v0, yj + v0, yk + v0, stride,
                                  yi_row);
      double* yp = yi + li * stride + v0;
      (V::load(yp) + two * yi_row).store(yp);
    }
  }
}

/// Face block c.i == c.j > c.k; RJ as for interior_panel.
template <class V, std::size_t RJ>
void face_ij_panel(const double* STTSV_RESTRICT data, std::size_t i0,
                   std::size_t i_end, std::size_t k0, std::size_t k_end,
                   const double* STTSV_RESTRICT xij,
                   const double* STTSV_RESTRICT xk,
                   double* STTSV_RESTRICT yij, double* STTSV_RESTRICT yk,
                   std::size_t stride, std::size_t chunks) {
  const std::size_t kb = k_end - k0;
  const std::size_t width = chunks * V::kWidth;
  const V two = V::broadcast(2.0);
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const std::size_t gi_base = gi * (gi + 1) * (gi + 2) / 6;
    for (std::size_t v0 = 0; v0 < width; v0 += V::kWidth) {
      const V xiv = V::load(xij + li * stride + v0);
      V yi_row = V::zero();
      panel_strict_row_run<V, RJ>(data, gi_base, i0, gi, i0, k0, kb, xiv,
                                  xij + v0, xk + v0, yij + v0, yk + v0,
                                  stride, yi_row);
      // gj == gi diagonal row, hoisted exactly as in the single kernel.
      const double* rows[1] = {data + gi_base + gi * (gi + 1) / 2 + k0};
      const V cy[1] = {xiv * xiv};
      V acc[1];
      panel_strict_rows<V, 1>(rows, kb, cy, xk + v0, yk + v0, stride, acc);
      double* yp = yij + li * stride + v0;
      (V::load(yp) + two * fmadd(xiv, acc[0], yi_row)).store(yp);
    }
  }
}

/// Face block c.i > c.j == c.k; RJ as for interior_panel.
template <class V, std::size_t RJ>
void face_jk_panel(const double* STTSV_RESTRICT data, std::size_t i0,
                   std::size_t i_end, std::size_t j0, std::size_t j_end,
                   const double* STTSV_RESTRICT xi,
                   const double* STTSV_RESTRICT xjk,
                   double* STTSV_RESTRICT yi, double* STTSV_RESTRICT yjk,
                   std::size_t stride, std::size_t chunks) {
  const std::size_t width = chunks * V::kWidth;
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const std::size_t gi_base = gi * (gi + 1) * (gi + 2) / 6;
    for (std::size_t v0 = 0; v0 < width; v0 += V::kWidth) {
      const V xiv = V::load(xi + li * stride + v0);
      V yi_row = V::zero();
      panel_tail_row_run<V, RJ>(data, gi_base, j0, j_end, j0, xiv, xjk + v0,
                                yjk + v0, stride, yi_row);
      double* yp = yi + li * stride + v0;
      (V::load(yp) + yi_row).store(yp);
    }
  }
}

/// Central diagonal block: all three slots alias one x/y panel pair.
/// Mirrors core::detail::central_kernel (face_jk rows below the diagonal
/// row plus the central element) — replacing the seed's element-wise
/// generic panel walk so central lanes stay bitwise-tied to the core. RJ
/// as for interior_panel; the diagonal row runs alone.
template <class V, std::size_t RJ>
void central_panel(const double* STTSV_RESTRICT data, std::size_t i0,
                   std::size_t i_end, const double* STTSV_RESTRICT x,
                   double* STTSV_RESTRICT y, std::size_t stride,
                   std::size_t chunks) {
  const std::size_t width = chunks * V::kWidth;
  const V two = V::broadcast(2.0);
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const std::size_t gi_base = gi * (gi + 1) * (gi + 2) / 6;
    for (std::size_t v0 = 0; v0 < width; v0 += V::kWidth) {
      const V xiv = V::load(x + li * stride + v0);
      V yi_row = V::zero();
      panel_tail_row_run<V, RJ>(data, gi_base, i0, gi, i0, xiv, x + v0,
                                y + v0, stride, yi_row);
      const double* rows[1] = {data + gi_base + gi * (gi + 1) / 2 + i0};
      const V cy[1] = {xiv * xiv};
      V acc[1];
      panel_strict_rows<V, 1>(rows, li, cy, x + v0, y + v0, stride, acc);
      const V vt = V::broadcast(rows[0][li]);
      double* yp = y + li * stride + v0;
      (V::load(yp) + ((yi_row + (two * xiv) * acc[0]) + (vt * xiv) * xiv))
          .store(yp);
    }
  }
}

/// Function-pointer table of one ISA instantiation: one entry point per
/// block class, and the lanes per chunk. Every entry ends with the panel
/// stride and the number of whole lane chunks to run.
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
  std::size_t width;  ///< panel lanes per chunk (V::kWidth)

  /// Runs `chunks` whole chunks of block c (edge b) on the lanes from
  /// `first` on of a `lanes`-lane panel. Defined in panel_kernels.cpp.
  void run(const tensor::SymTensor3& a, const partition::BlockCoord& c,
           std::size_t b, std::size_t lanes, const PanelBuffers& buf,
           std::size_t first, std::size_t chunks) const;
};

/// Rows per group of the panel kernels of vector type V (DESIGN.md
/// §13.3): kRowBlock for the SIMD types. The scalar type's fmadd calls
/// std::fma, a libm call in the portable TU that clobbers every vector
/// register, so fusing rows cannot keep its partials in registers; a
/// one-thread probe timed RJ = 1 fastest among 1, 2 and 4 (§13.5).
template <class V>
inline constexpr std::size_t kPanelRowBlock = kRowBlock;
template <>
inline constexpr std::size_t kPanelRowBlock<simt::simd::VecScalar> = 1;

template <class V, std::size_t RJ = kPanelRowBlock<V>>
PanelVTable make_panel_vtable() {
  return {&interior_panel<V, RJ>, &face_ij_panel<V, RJ>,
          &face_jk_panel<V, RJ>, &central_panel<V, RJ>, V::kWidth};
}

/// The scalar panel kernels with every row alone (RJ = 1): the unfused
/// reference the register-block test compares the fused core and panel
/// kernels against (DESIGN.md §13.3). Defined in panel_kernels.cpp, so it
/// is compiled under the kernels' -ffp-contract=off.
const PanelVTable& unfused_panel_vtable();

/// Defined in panel_kernels_avx2.cpp when STTSV_HAVE_AVX2_KERNELS.
const PanelVTable& avx2_panel_vtable();

/// Defined in panel_kernels_avx512.cpp when STTSV_HAVE_AVX512_KERNELS.
const PanelVTable& avx512_panel_vtable();

}  // namespace sttsv::core::detail
