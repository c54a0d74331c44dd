#pragma once
// Templated bodies of the class-specialized block kernels (DESIGN.md §13).
//
// Every kernel here is written once as a template over a 4-lane vector
// type V (simt::simd::VecScalar or simt::simd::VecAvx2) and instantiated
// in two translation units: block_kernels.cpp (portable, always built)
// and block_kernels_avx2.cpp (compiled with -mavx2, dispatched at
// runtime). Both TUs are compiled with -ffp-contract=off.
//
// §13.1 Canonical arithmetic order. The bitwise contract — scalar
// fallback, AVX2 path, fused (RJ > 1) and single (RJ = 1) strict rows,
// and each lane of the panel kernels (panel_kernels.hpp) all produce
// bit-identical y — holds because every implementation performs the
// same rounded operations per element in the same order:
//
//   * dot products over a k-run: 4 partial sums over the full 4-chunks
//     (partial p accumulates elements lk ≡ p mod 4), combined as
//     (p0 + p1) + (p2 + p3), then the <4 leftover elements appended
//     sequentially;
//   * elementwise y updates (y[lk] += c·v): one rounded multiply and one
//     rounded add per element, applied in ascending j order for every
//     element — register-blocking j (RJ > 1) keeps the y chunk in a
//     register but applies the same per-element add sequence;
//   * no FMA contraction anywhere.
//
// §13.3 Register blocks. Interior strict rows run in groups of RJ = 4
// fused j-rows and face_ij strict rows in groups of RJ = 2; remainder
// rows and every other row run at RJ = 1.

#include <cstddef>
#include <cstdint>

#include "simt/simd.hpp"

#ifndef STTSV_RESTRICT
#define STTSV_RESTRICT __restrict__
#endif

namespace sttsv::core::detail {

/// Packed offset of the row (gi, gj, *): data[row + gk] is a_{gi,gj,gk}.
inline std::size_t packed_row_base(std::size_t gi, std::size_t gj) {
  return gi * (gi + 1) * (gi + 2) / 6 + gj * (gj + 1) / 2;
}

// ---------------------------------------------------------------------------
// Canonical row primitives.
// ---------------------------------------------------------------------------

/// RJ fused strict rows over one k-run of length kb: for each row r (in
/// ascending j order) accumulates acc[r] = Σ_lk rows[r][lk]·xk[lk] in the
/// canonical order and applies yk[lk] += cy[r]·rows[r][lk] elementwise.
template <class V, std::size_t RJ>
inline void strict_rows(const double* const* rows,
                        const double* STTSV_RESTRICT xk,
                        double* STTSV_RESTRICT yk, const double* cy,
                        double* acc, std::size_t kb) {
  V accv[RJ];
  V cyv[RJ];
  for (std::size_t r = 0; r < RJ; ++r) {
    accv[r] = V::zero();
    cyv[r] = V::broadcast(cy[r]);
  }
  std::size_t lk = 0;
  for (; lk + simt::simd::kLanes <= kb; lk += simt::simd::kLanes) {
    const V xv = V::load(xk + lk);
    V yv = V::load(yk + lk);
    for (std::size_t r = 0; r < RJ; ++r) {
      const V vv = V::load(rows[r] + lk);
      accv[r] = accv[r] + vv * xv;
      yv = yv + cyv[r] * vv;
    }
    yv.store(yk + lk);
  }
  for (std::size_t r = 0; r < RJ; ++r) acc[r] = accv[r].reduce();
  const std::size_t tail = kb - lk;
  if (tail != 0) {
    // Masked elementwise y update; the dot-product tail is appended
    // sequentially after the canonical 4-partial combine.
    V yv = V::load_partial(yk + lk, tail);
    for (std::size_t r = 0; r < RJ; ++r) {
      const V vv = V::load_partial(rows[r] + lk, tail);
      yv = yv + cyv[r] * vv;
      for (std::size_t t = 0; t < tail; ++t) {
        acc[r] += rows[r][lk + t] * xk[lk + t];
      }
    }
    yv.store_partial(yk + lk, tail);
  }
}

/// One face_jk/central row: a strict run of lj elements followed by the
/// gk == gj tail element at row[lj] (element class i > j == k).
template <class V>
inline void face_jk_row(const double* STTSV_RESTRICT row, std::size_t lj,
                        double xiv, double xjv,
                        const double* STTSV_RESTRICT xjk,
                        double* STTSV_RESTRICT yjk, double& yi_row) {
  const double cy = 2.0 * xiv * xjv;
  double acc = 0.0;
  const double* rows[1] = {row};
  strict_rows<V, 1>(rows, xjk, yjk, &cy, &acc, lj);
  const double vt = row[lj];
  yi_row += 2.0 * xjv * acc + vt * xjv * xjv;
  yjk[lj] += 2.0 * xiv * acc + 2.0 * vt * xiv * xjv;
}

// ---------------------------------------------------------------------------
// Class kernels (standard math).
// ---------------------------------------------------------------------------

/// Interior block c.i > c.j > c.k: every element strict, 3 updates.
template <class V, std::size_t RJ>
std::uint64_t interior_kernel(const double* STTSV_RESTRICT data,
                              std::size_t i0, std::size_t i_end,
                              std::size_t j0, std::size_t j_end,
                              std::size_t k0, std::size_t k_end,
                              const double* STTSV_RESTRICT xi,
                              const double* STTSV_RESTRICT xj,
                              const double* STTSV_RESTRICT xk,
                              double* STTSV_RESTRICT yi,
                              double* STTSV_RESTRICT yj,
                              double* STTSV_RESTRICT yk) {
  const std::size_t kb = k_end - k0;
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const double xiv = xi[li];
    const std::size_t gi_base = gi * (gi + 1) * (gi + 2) / 6;
    double yi_row = 0.0;
    std::size_t gj = j0;
    for (; gj + RJ <= j_end; gj += RJ) {
      const double* rows[RJ];
      double xjv[RJ];
      double cy[RJ];
      double acc[RJ];
      for (std::size_t r = 0; r < RJ; ++r) {
        rows[r] = data + gi_base + (gj + r) * (gj + r + 1) / 2 + k0;
        xjv[r] = xj[gj + r - j0];
        cy[r] = 2.0 * xiv * xjv[r];
      }
      // Touch the first cache line of each row in the *next* group. The
      // rows stride apart in the packed layout, so the hardware streamer
      // sees RJ short independent streams and misses their heads; one
      // explicit hint per row hides most of that latency (pure hint — no
      // effect on results). Prefetching more than the head is counter-
      // productive: the streamer covers the rest of each row.
      if (gj + 2 * RJ <= j_end) {
        for (std::size_t r = 0; r < RJ; ++r) {
          const double* next =
              data + gi_base + (gj + RJ + r) * (gj + RJ + r + 1) / 2 + k0;
          __builtin_prefetch(next);
          __builtin_prefetch(next + 8);
        }
      }
      strict_rows<V, RJ>(rows, xk, yk, cy, acc, kb);
      for (std::size_t r = 0; r < RJ; ++r) {
        yi_row += xjv[r] * acc[r];
        yj[gj + r - j0] += 2.0 * xiv * acc[r];
      }
    }
    for (; gj < j_end; ++gj) {  // remainder rows: RJ = 1, same order
      const double* rows[1] = {data + gi_base + gj * (gj + 1) / 2 + k0};
      const double xjv = xj[gj - j0];
      const double cy = 2.0 * xiv * xjv;
      double acc = 0.0;
      strict_rows<V, 1>(rows, xk, yk, &cy, &acc, kb);
      yi_row += xjv * acc;
      yj[gj - j0] += 2.0 * xiv * acc;
    }
    yi[li] += 2.0 * yi_row;
  }
  return 3 * static_cast<std::uint64_t>(i_end - i0) * (j_end - j0) * kb;
}

/// Face block c.i == c.j > c.k: strict rows gj < gi plus the hoisted
/// gj == gi diagonal row. Slots 0/1 alias: xij/yij serve both.
template <class V, std::size_t RJ>
std::uint64_t face_ij_kernel(const double* STTSV_RESTRICT data,
                             std::size_t i0, std::size_t i_end,
                             std::size_t k0, std::size_t k_end,
                             const double* STTSV_RESTRICT xij,
                             const double* STTSV_RESTRICT xk,
                             double* STTSV_RESTRICT yij,
                             double* STTSV_RESTRICT yk) {
  const std::size_t kb = k_end - k0;
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const double xiv = xij[li];
    const std::size_t gi_base = gi * (gi + 1) * (gi + 2) / 6;
    double yi_row = 0.0;
    std::size_t gj = i0;
    for (; gj + RJ <= gi; gj += RJ) {
      const double* rows[RJ];
      double xjv[RJ];
      double cy[RJ];
      double acc[RJ];
      for (std::size_t r = 0; r < RJ; ++r) {
        rows[r] = data + gi_base + (gj + r) * (gj + r + 1) / 2 + k0;
        xjv[r] = xij[gj + r - i0];
        cy[r] = 2.0 * xiv * xjv[r];
      }
      if (gj + 2 * RJ <= gi) {  // same head-of-stream hint as interior
        for (std::size_t r = 0; r < RJ; ++r) {
          const double* next =
              data + gi_base + (gj + RJ + r) * (gj + RJ + r + 1) / 2 + k0;
          __builtin_prefetch(next);
          __builtin_prefetch(next + 8);
        }
      }
      strict_rows<V, RJ>(rows, xk, yk, cy, acc, kb);
      for (std::size_t r = 0; r < RJ; ++r) {
        yi_row += xjv[r] * acc[r];
        yij[gj + r - i0] += 2.0 * xiv * acc[r];
      }
    }
    for (; gj < gi; ++gj) {
      const double* rows[1] = {data + gi_base + gj * (gj + 1) / 2 + k0};
      const double xjv = xij[gj - i0];
      const double cy = 2.0 * xiv * xjv;
      double acc = 0.0;
      strict_rows<V, 1>(rows, xk, yk, &cy, &acc, kb);
      yi_row += xjv * acc;
      yij[gj - i0] += 2.0 * xiv * acc;
    }
    // gj == gi: y_i += 2 a x_j x_k collapses to 2 x_i Σ a x_k, and
    // y_k += a x_i x_j becomes an axpy with coefficient x_i².
    const double* rows[1] = {data + gi_base + gi * (gi + 1) / 2 + k0};
    const double cy = xiv * xiv;
    double acc = 0.0;
    strict_rows<V, 1>(rows, xk, yk, &cy, &acc, kb);
    yij[li] += 2.0 * (yi_row + xiv * acc);
  }
  const std::uint64_t ni = i_end - i0;
  return kb * (3 * (ni * (ni - 1) / 2) + 2 * ni);
}

/// Face block c.i > c.j == c.k: per (gi, gj) a strict run gk < gj plus
/// the gk == gj tail element. Slots 1/2 alias: xjk/yjk serve both.
template <class V>
std::uint64_t face_jk_kernel(const double* STTSV_RESTRICT data,
                             std::size_t i0, std::size_t i_end,
                             std::size_t j0, std::size_t j_end,
                             const double* STTSV_RESTRICT xi,
                             const double* STTSV_RESTRICT xjk,
                             double* STTSV_RESTRICT yi,
                             double* STTSV_RESTRICT yjk) {
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const double xiv = xi[li];
    const std::size_t gi_base = gi * (gi + 1) * (gi + 2) / 6;
    double yi_row = 0.0;
    for (std::size_t gj = j0; gj < j_end; ++gj) {
      const std::size_t lj = gj - j0;
      face_jk_row<V>(data + gi_base + gj * (gj + 1) / 2 + j0, lj, xiv,
                     xjk[lj], xjk, yjk, yi_row);
    }
    yi[li] += yi_row;
  }
  const std::uint64_t ni = i_end - i0;
  const std::uint64_t nj = j_end - j0;
  return ni * (3 * (nj * (nj - 1) / 2) + 2 * nj);
}

/// Central diagonal block c.i == c.j == c.k: all three slots alias a
/// single x/y pair. Rows gj < gi behave exactly like face_jk rows; the
/// gj == gi diagonal row is a face_ij-style run plus the central
/// element a_iii. Vectorizes the strict runs the seed element-wise
/// kernel left scalar.
template <class V>
std::uint64_t central_kernel(const double* STTSV_RESTRICT data,
                             std::size_t i0, std::size_t i_end,
                             const double* STTSV_RESTRICT x,
                             double* STTSV_RESTRICT y) {
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const double xiv = x[li];
    const std::size_t gi_base = gi * (gi + 1) * (gi + 2) / 6;
    double yi_row = 0.0;
    for (std::size_t gj = i0; gj < gi; ++gj) {
      const std::size_t lj = gj - i0;
      face_jk_row<V>(data + gi_base + gj * (gj + 1) / 2 + i0, lj, xiv,
                     x[lj], x, y, yi_row);
    }
    // Diagonal row gj == gi: strict run gk < gi (class i == j > k), then
    // the central element a_iii.
    const double* rows[1] = {data + gi_base + gi * (gi + 1) / 2 + i0};
    const double cy = xiv * xiv;
    double acc = 0.0;
    strict_rows<V, 1>(rows, x, y, &cy, &acc, li);
    const double vt = rows[0][li];
    y[li] += yi_row + 2.0 * xiv * acc + vt * xiv * xiv;
  }
  const std::uint64_t e = i_end - i0;
  // 3·C(e,3) strict + 2·2·C(e,2) face elements + e central elements.
  return e * (e - 1) * (e - 2) / 2 + 2 * e * (e - 1) + e;
}

// ---------------------------------------------------------------------------
// Dispatch table.
// ---------------------------------------------------------------------------

/// Function-pointer table of one ISA instantiation.
struct KernelVTable {
  using InteriorFn = std::uint64_t (*)(const double*, std::size_t,
                                       std::size_t, std::size_t, std::size_t,
                                       std::size_t, std::size_t,
                                       const double*, const double*,
                                       const double*, double*, double*,
                                       double*);
  using FaceFn = std::uint64_t (*)(const double*, std::size_t, std::size_t,
                                   std::size_t, std::size_t, const double*,
                                   const double*, double*, double*);
  using CentralFn = std::uint64_t (*)(const double*, std::size_t, std::size_t,
                                      const double*, double*);
  InteriorFn interior;
  FaceFn face_ij;
  FaceFn face_jk;
  CentralFn central;
};

template <class V>
KernelVTable make_kernel_vtable() {
  return {&interior_kernel<V, 4>, &face_ij_kernel<V, 2>, &face_jk_kernel<V>,
          &central_kernel<V>};
}

/// Defined in block_kernels_avx2.cpp when the build compiles the AVX2
/// kernel TU (STTSV_HAVE_AVX2_KERNELS).
const KernelVTable& avx2_kernel_vtable();

}  // namespace sttsv::core::detail
