#pragma once
// Templated bodies of the class-specialized block kernels (DESIGN.md §13).
//
// Every kernel here is written once as a template over a 4-lane vector
// type V (simt::simd::VecScalar or simt::simd::VecAvx2) and a lane count
// L ∈ {1, 2, 3}, and instantiated in two translation units:
// block_kernels.cpp (portable, always built) and block_kernels_avx2.cpp
// (compiled with -mavx2 -mfma, dispatched at runtime). Both TUs are
// compiled with -ffp-contract=off.
//
// §13.1 Canonical arithmetic order. The bitwise contract — scalar
// fallback, AVX2 path, fused (RJ > 1) and single (RJ = 1) strict rows,
// every lane count L, and each lane of the panel kernels
// (panel_kernels.hpp) all produce bit-identical y — holds because every
// implementation performs the same rounded operations per element and
// lane in the same order:
//
//   * dot products over a k-run: 4 partial sums over the full 4-chunks
//     (partial p accumulates elements lk ≡ p mod 4), combined as
//     (p0 + p1) + (p2 + p3), then the <4 leftover elements appended
//     sequentially; every step is one fused multiply-add;
//   * elementwise y updates (y[lk] += c·v): one fused multiply-add per
//     element, applied in ascending j order for every element —
//     register-blocking j (RJ > 1) keeps the y chunk in a register but
//     applies the same per-element sequence;
//   * the row sums after each strict row (yi_row += x_j·acc,
//     y_j += 2x_i·acc, face_ij's yi_row + x_i·acc): one fused
//     multiply-add each;
//   * nothing else is fused: compound coefficients (2x_i·x_j, x_i²), the
//     gk == gj tail and central-element formulas and the final adds into
//     y_i keep separately rounded multiplies and adds, and
//     -ffp-contract=off keeps the compiler from fusing them in one TU but
//     not another.
//
// fmadd (vector) and std::fma (scalar) are IEEE fusedMultiplyAdd,
// correctly rounded on every path, so the bits do not depend on the ISA.
//
// Lanes never mix: an L-lane call loads each tensor chunk once and
// applies it to every lane in turn, and each lane keeps its own x_i, row
// sums, x_j, coefficients and accumulators.
//
// §13.3 Register blocks. Interior and face_ij strict rows run in groups
// of RJ = 4 fused j-rows at every L; remainder rows and every other row
// run at RJ = 1.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/block_kernels.hpp"
#include "simt/simd.hpp"

#ifndef STTSV_RESTRICT
#define STTSV_RESTRICT __restrict__
#endif

namespace sttsv::core::detail {

/// Fused strict rows per register block (DESIGN.md §13.3).
inline constexpr std::size_t kRowBlock = 4;

/// Packed offset of the row (gi, gj, *): data[row + gk] is a_{gi,gj,gk}.
inline std::size_t packed_row_base(std::size_t gi, std::size_t gj) {
  return gi * (gi + 1) * (gi + 2) / 6 + gj * (gj + 1) / 2;
}

// ---------------------------------------------------------------------------
// Canonical row primitives. Lane l of a slot starts `stride` doubles after
// lane l - 1.
// ---------------------------------------------------------------------------

/// RJ fused strict rows over one k-run of length kb for L lanes: for each
/// lane l and row r (in ascending j order) accumulates acc[l][r] =
/// Σ_lk rows[r][lk]·xk_l[lk] in the canonical order and applies
/// yk_l[lk] += cy[l][r]·rows[r][lk] elementwise. Each 4-entry chunk of a
/// row is loaded once for all L lanes.
template <class V, std::size_t RJ, std::size_t L>
inline void strict_rows(const double* const* rows,
                        const double* STTSV_RESTRICT xk,
                        double* STTSV_RESTRICT yk, std::size_t stride,
                        const double (*cy)[RJ], double (*acc)[RJ],
                        std::size_t kb) {
  V accv[L][RJ];
  V cyv[L][RJ];
  for (std::size_t l = 0; l < L; ++l) {
    for (std::size_t r = 0; r < RJ; ++r) {
      accv[l][r] = V::zero();
      cyv[l][r] = V::broadcast(cy[l][r]);
    }
  }
  std::size_t lk = 0;
  for (; lk + simt::simd::kLanes <= kb; lk += simt::simd::kLanes) {
    V vv[RJ];
    for (std::size_t r = 0; r < RJ; ++r) vv[r] = V::load(rows[r] + lk);
    for (std::size_t l = 0; l < L; ++l) {
      const V xv = V::load(xk + l * stride + lk);
      V yv = V::load(yk + l * stride + lk);
      for (std::size_t r = 0; r < RJ; ++r) {
        accv[l][r] = fmadd(vv[r], xv, accv[l][r]);
        yv = fmadd(cyv[l][r], vv[r], yv);
      }
      yv.store(yk + l * stride + lk);
    }
  }
  for (std::size_t l = 0; l < L; ++l) {
    for (std::size_t r = 0; r < RJ; ++r) acc[l][r] = accv[l][r].reduce();
  }
  const std::size_t tail = kb - lk;
  if (tail != 0) {
    // Masked elementwise y update; the dot-product tail is appended
    // sequentially after the canonical 4-partial combine.
    V vv[RJ];
    for (std::size_t r = 0; r < RJ; ++r) {
      vv[r] = V::load_partial(rows[r] + lk, tail);
    }
    for (std::size_t l = 0; l < L; ++l) {
      const double* xl = xk + l * stride;
      double* yl = yk + l * stride;
      V yv = V::load_partial(yl + lk, tail);
      for (std::size_t r = 0; r < RJ; ++r) {
        yv = fmadd(cyv[l][r], vv[r], yv);
        for (std::size_t t = 0; t < tail; ++t) {
          acc[l][r] = std::fma(rows[r][lk + t], xl[lk + t], acc[l][r]);
        }
      }
      yv.store_partial(yl + lk, tail);
    }
  }
}

/// The strict rows gj ∈ [gj, gj_end) of row gi (packed base gi_base) over
/// the k-run [k0, k0 + kb) for L lanes, in ascending j order: groups of
/// RJ fused rows, then the remainder one row at a time. Slot j's lanes
/// xj/yj are indexed from j_base; yi_row[l] collects Σ x_j·acc.
template <class V, std::size_t RJ, std::size_t L>
inline void strict_row_run(const double* STTSV_RESTRICT data,
                           std::size_t gi_base, std::size_t gj,
                           std::size_t gj_end, std::size_t j_base,
                           std::size_t k0, std::size_t kb,
                           const double (&xiv)[L],
                           const double* STTSV_RESTRICT xj,
                           const double* STTSV_RESTRICT xk,
                           double* STTSV_RESTRICT yj,
                           double* STTSV_RESTRICT yk, std::size_t stride,
                           double (&yi_row)[L]) {
  for (; gj + RJ <= gj_end; gj += RJ) {
    const double* rows[RJ];
    double xjv[L][RJ];
    double cy[L][RJ];
    double acc[L][RJ];
    for (std::size_t r = 0; r < RJ; ++r) {
      rows[r] = data + gi_base + (gj + r) * (gj + r + 1) / 2 + k0;
    }
    for (std::size_t l = 0; l < L; ++l) {
      for (std::size_t r = 0; r < RJ; ++r) {
        xjv[l][r] = xj[l * stride + gj + r - j_base];
        cy[l][r] = 2.0 * xiv[l] * xjv[l][r];
      }
    }
    // Touch the first cache line of each row in the *next* group. The
    // rows stride apart in the packed layout, so the hardware streamer
    // sees RJ short independent streams and misses their heads; one
    // explicit hint per row hides most of that latency (pure hint — no
    // effect on results). Prefetching more than the head is counter-
    // productive: the streamer covers the rest of each row.
    if (RJ > 1 && gj + 2 * RJ <= gj_end) {
      for (std::size_t r = 0; r < RJ; ++r) {
        const double* next =
            data + gi_base + (gj + RJ + r) * (gj + RJ + r + 1) / 2 + k0;
        __builtin_prefetch(next);
        __builtin_prefetch(next + 8);
      }
    }
    strict_rows<V, RJ, L>(rows, xk, yk, stride, cy, acc, kb);
    for (std::size_t l = 0; l < L; ++l) {
      for (std::size_t r = 0; r < RJ; ++r) {
        yi_row[l] = std::fma(xjv[l][r], acc[l][r], yi_row[l]);
        double& yjr = yj[l * stride + gj + r - j_base];
        yjr = std::fma(2.0 * xiv[l], acc[l][r], yjr);
      }
    }
  }
  if constexpr (RJ > 1) {  // remainder rows: RJ = 1, same order
    strict_row_run<V, 1, L>(data, gi_base, gj, gj_end, j_base, k0, kb, xiv,
                            xj, xk, yj, yk, stride, yi_row);
  }
}

/// One face_jk/central row for L lanes: a strict run of lj elements
/// followed by the gk == gj tail element at row[lj] (element class
/// i > j == k).
template <class V, std::size_t L>
inline void face_jk_row(const double* STTSV_RESTRICT row, std::size_t lj,
                        const double (&xiv)[L],
                        const double* STTSV_RESTRICT xjk,
                        double* STTSV_RESTRICT yjk, std::size_t stride,
                        double (&yi_row)[L]) {
  double xjv[L];
  double cy[L][1];
  double acc[L][1];
  for (std::size_t l = 0; l < L; ++l) {
    xjv[l] = xjk[l * stride + lj];
    cy[l][0] = 2.0 * xiv[l] * xjv[l];
  }
  const double* rows[1] = {row};
  strict_rows<V, 1, L>(rows, xjk, yjk, stride, cy, acc, lj);
  const double vt = row[lj];
  for (std::size_t l = 0; l < L; ++l) {
    yi_row[l] += 2.0 * xjv[l] * acc[l][0] + vt * xjv[l] * xjv[l];
    yjk[l * stride + lj] +=
        2.0 * xiv[l] * acc[l][0] + 2.0 * vt * xiv[l] * xjv[l];
  }
}

// ---------------------------------------------------------------------------
// Class kernels (standard math). Each reads x_i of row gi for every lane,
// sweeps the row's entries once for all lanes, and adds its row sums to
// y_i.
// ---------------------------------------------------------------------------

/// Interior block c.i > c.j > c.k: every element strict, 3 updates.
template <class V, std::size_t L>
void interior_kernel(const double* STTSV_RESTRICT data, std::size_t i0,
                     std::size_t i_end, std::size_t j0, std::size_t j_end,
                     std::size_t k0, std::size_t k_end,
                     const double* STTSV_RESTRICT xi,
                     const double* STTSV_RESTRICT xj,
                     const double* STTSV_RESTRICT xk,
                     double* STTSV_RESTRICT yi, double* STTSV_RESTRICT yj,
                     double* STTSV_RESTRICT yk, std::size_t stride) {
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    double xiv[L];
    double yi_row[L];
    for (std::size_t l = 0; l < L; ++l) {
      xiv[l] = xi[l * stride + li];
      yi_row[l] = 0.0;
    }
    strict_row_run<V, kRowBlock, L>(data, gi * (gi + 1) * (gi + 2) / 6, j0,
                                    j_end, j0, k0, k_end - k0, xiv, xj, xk,
                                    yj, yk, stride, yi_row);
    for (std::size_t l = 0; l < L; ++l) yi[l * stride + li] += 2.0 * yi_row[l];
  }
}

/// Face block c.i == c.j > c.k: strict rows gj < gi plus the hoisted
/// gj == gi diagonal row. Slots 0/1 alias: xij/yij serve both.
template <class V, std::size_t L>
void face_ij_kernel(const double* STTSV_RESTRICT data, std::size_t i0,
                    std::size_t i_end, std::size_t k0, std::size_t k_end,
                    const double* STTSV_RESTRICT xij,
                    const double* STTSV_RESTRICT xk,
                    double* STTSV_RESTRICT yij, double* STTSV_RESTRICT yk,
                    std::size_t stride) {
  const std::size_t kb = k_end - k0;
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const std::size_t gi_base = gi * (gi + 1) * (gi + 2) / 6;
    double xiv[L];
    double yi_row[L];
    double cy[L][1];
    double acc[L][1];
    for (std::size_t l = 0; l < L; ++l) {
      xiv[l] = xij[l * stride + li];
      yi_row[l] = 0.0;
      cy[l][0] = xiv[l] * xiv[l];
    }
    strict_row_run<V, kRowBlock, L>(data, gi_base, i0, gi, i0, k0, kb, xiv,
                                    xij, xk, yij, yk, stride, yi_row);
    // gj == gi: y_i += 2 a x_j x_k collapses to 2 x_i Σ a x_k, and
    // y_k += a x_i x_j becomes an axpy with coefficient x_i².
    const double* rows[1] = {data + gi_base + gi * (gi + 1) / 2 + k0};
    strict_rows<V, 1, L>(rows, xk, yk, stride, cy, acc, kb);
    for (std::size_t l = 0; l < L; ++l) {
      yij[l * stride + li] += 2.0 * std::fma(xiv[l], acc[l][0], yi_row[l]);
    }
  }
}

/// Face block c.i > c.j == c.k: per (gi, gj) a strict run gk < gj plus
/// the gk == gj tail element. Slots 1/2 alias: xjk/yjk serve both.
template <class V, std::size_t L>
void face_jk_kernel(const double* STTSV_RESTRICT data, std::size_t i0,
                    std::size_t i_end, std::size_t j0, std::size_t j_end,
                    const double* STTSV_RESTRICT xi,
                    const double* STTSV_RESTRICT xjk,
                    double* STTSV_RESTRICT yi, double* STTSV_RESTRICT yjk,
                    std::size_t stride) {
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const std::size_t gi_base = gi * (gi + 1) * (gi + 2) / 6;
    double xiv[L];
    double yi_row[L];
    for (std::size_t l = 0; l < L; ++l) {
      xiv[l] = xi[l * stride + li];
      yi_row[l] = 0.0;
    }
    for (std::size_t gj = j0; gj < j_end; ++gj) {
      face_jk_row<V, L>(data + gi_base + gj * (gj + 1) / 2 + j0, gj - j0, xiv,
                        xjk, yjk, stride, yi_row);
    }
    for (std::size_t l = 0; l < L; ++l) yi[l * stride + li] += yi_row[l];
  }
}

/// Central diagonal block c.i == c.j == c.k: all three slots alias a
/// single x/y pair. Rows gj < gi behave exactly like face_jk rows; the
/// gj == gi diagonal row is a face_ij-style run plus the central
/// element a_iii. Vectorizes the strict runs the seed element-wise
/// kernel left scalar.
template <class V, std::size_t L>
void central_kernel(const double* STTSV_RESTRICT data, std::size_t i0,
                    std::size_t i_end, const double* STTSV_RESTRICT x,
                    double* STTSV_RESTRICT y, std::size_t stride) {
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const std::size_t gi_base = gi * (gi + 1) * (gi + 2) / 6;
    double xiv[L];
    double yi_row[L];
    double cy[L][1];
    double acc[L][1];
    for (std::size_t l = 0; l < L; ++l) {
      xiv[l] = x[l * stride + li];
      yi_row[l] = 0.0;
      cy[l][0] = xiv[l] * xiv[l];
    }
    for (std::size_t gj = i0; gj < gi; ++gj) {
      face_jk_row<V, L>(data + gi_base + gj * (gj + 1) / 2 + i0, gj - i0, xiv,
                        x, y, stride, yi_row);
    }
    // Diagonal row gj == gi: strict run gk < gi (class i == j > k), then
    // the central element a_iii.
    const double* rows[1] = {data + gi_base + gi * (gi + 1) / 2 + i0};
    strict_rows<V, 1, L>(rows, x, y, stride, cy, acc, li);
    const double vt = rows[0][li];
    for (std::size_t l = 0; l < L; ++l) {
      y[l * stride + li] +=
          yi_row[l] + 2.0 * xiv[l] * acc[l][0] + vt * xiv[l] * xiv[l];
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch table.
// ---------------------------------------------------------------------------

/// Function-pointer table of one ISA instantiation: entry [L - 1] of each
/// class runs L lanes. Every entry ends with the lane stride.
struct KernelVTable {
  using InteriorFn = void (*)(const double*, std::size_t, std::size_t,
                              std::size_t, std::size_t, std::size_t,
                              std::size_t, const double*, const double*,
                              const double*, double*, double*, double*,
                              std::size_t);
  /// Both face classes: one aliased slot pair plus one distinct slot.
  using FaceFn = void (*)(const double*, std::size_t, std::size_t,
                          std::size_t, std::size_t, const double*,
                          const double*, double*, double*, std::size_t);
  using CentralFn = void (*)(const double*, std::size_t, std::size_t,
                             const double*, double*, std::size_t);
  InteriorFn interior[kMaxBlockLanes];
  FaceFn face_ij[kMaxBlockLanes];
  FaceFn face_jk[kMaxBlockLanes];
  CentralFn central[kMaxBlockLanes];
};

template <class V>
KernelVTable make_kernel_vtable() {
  static_assert(kMaxBlockLanes == 3);
  return {{&interior_kernel<V, 1>, &interior_kernel<V, 2>,
           &interior_kernel<V, 3>},
          {&face_ij_kernel<V, 1>, &face_ij_kernel<V, 2>,
           &face_ij_kernel<V, 3>},
          {&face_jk_kernel<V, 1>, &face_jk_kernel<V, 2>,
           &face_jk_kernel<V, 3>},
          {&central_kernel<V, 1>, &central_kernel<V, 2>,
           &central_kernel<V, 3>}};
}

/// Defined in block_kernels_avx2.cpp when the build compiles the AVX2
/// kernel TU (STTSV_HAVE_AVX2_KERNELS).
const KernelVTable& avx2_kernel_vtable();

/// Throws PreconditionError unless c is sorted, every slot is bound, and
/// the slots of equal coordinates alias (slots 0/1 when c.i == c.j, 1/2
/// when c.j == c.k). Shared by the core and panel entry points.
void require_block_slots(const partition::BlockCoord& c,
                         const double* const (&x)[3],
                         double* const (&y)[3]);

/// Ternary multiplications one lane performs on block c with ni, nj and
/// nk valid rows in its three slots (Section 7.1 counting).
std::uint64_t block_lane_mults(const partition::BlockCoord& c, std::uint64_t ni,
                               std::uint64_t nj, std::uint64_t nk);

}  // namespace sttsv::core::detail
