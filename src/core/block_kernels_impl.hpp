#pragma once
// Templated bodies of the class-specialized block kernels (DESIGN.md §13).
//
// Every kernel here is written once as a template over a 4-lane vector
// type V (simt::simd::VecScalar or simt::simd::VecAvx2) and instantiated
// in two translation units: block_kernels.cpp (portable, always built)
// and block_kernels_avx2.cpp (compiled with -mavx2 -mfma, dispatched at
// runtime). Both TUs are compiled with -ffp-contract=off.
//
// §13.1 Canonical arithmetic order. The bitwise contract — scalar
// fallback, AVX2 path, every register-block shape RJ, and each lane of
// the panel kernels (panel_kernels.hpp) all produce bit-identical y —
// holds because every implementation performs the same rounded
// operations per element in the same order:
//
//   * dot products over a k-run: 4 partial sums over the full 4-chunks
//     (partial p accumulates elements lk ≡ p mod 4), combined as
//     (p0 + p1) + (p2 + p3), then the <4 leftover elements appended
//     sequentially;
//   * elementwise y updates (y[lk] += c·v): one rounded multiply and one
//     rounded add per element, applied in ascending j order for every
//     element — register-blocking j (RJ > 1) keeps the y chunk in a
//     register but applies the same per-element add sequence;
//   * no FMA contraction anywhere on this path (V::fmadd is reserved for
//     the compressed-math kernels below).
//
// §13.4 Compressed bilinear math (opt-in, interior blocks). The
// symmetry-compressed formulation of Solomonik–Demmel–Hoefler (arXiv
// 1707.04618) forms one bilinear product per packed entry,
// p = a_ijk·(x_i+x_j+x_k)², instead of three ternary products, and
// recovers the three y contributions from p plus lower-order correction
// contractions of the adds-only marginals Σ_k a, Σ_j a, Σ_i a. Exact
// multiplicative-operation count for a bi×bj×bk interior block
// (checked by tests/test_simd_kernels.cpp):
//
//   bi·bj·bk  +  4(bi·bj + bi·bk + bj·bk)  +  3(bi + bj + bk)
//
// versus 3·bi·bj·bk for the standard kernels — the leading term drops
// 3×, paid for with ~6 extra adds per entry. Compressed results are
// *documented as reassociating*: they match the reference only to
// rounding (O(b²·ε) cancellation in the corrections), may use FMA, and
// are therefore gated off by default (KernelMath::kStandard) so the
// repo-wide bitwise-y invariant holds in default builds.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simt/simd.hpp"

#ifndef STTSV_RESTRICT
#define STTSV_RESTRICT __restrict__
#endif

namespace sttsv::core::detail {

/// Packed offset of the row (gi, gj, *): data[row + gk] is a_{gi,gj,gk}.
inline std::size_t packed_row_base(std::size_t gi, std::size_t gj) {
  return gi * (gi + 1) * (gi + 2) / 6 + gj * (gj + 1) / 2;
}

/// Scratch for the compressed kernels: adds-only marginal matrices and
/// per-fiber product sums. Heap-backed (thread_local in the dispatcher);
/// the compressed path is opt-in and not bound by the steady-state
/// no-allocation guarantee of the default path (DESIGN.md §12).
struct CompressedScratch {
  std::vector<double> sig;  // bi×bj: Σ_k a
  std::vector<double> tau;  // bi×bk: Σ_j a
  std::vector<double> rho;  // bj×bk: Σ_i a
  std::vector<double> pj;   // bj: Σ_{i,k} p
  std::vector<double> pk;   // bk: Σ_{i,j} p
  std::vector<double> x2i, x2j, x2k;

  void ensure(std::size_t bi, std::size_t bj, std::size_t bk) {
    sig.assign(bi * bj, 0.0);
    tau.assign(bi * bk, 0.0);
    rho.assign(bj * bk, 0.0);
    pj.assign(bj, 0.0);
    pk.assign(bk, 0.0);
    x2i.resize(bi);
    x2j.resize(bj);
    x2k.resize(bk);
  }
};

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
// Compressed bilinear kernel (interior blocks only; see header comment).
// ---------------------------------------------------------------------------

template <class V>
std::uint64_t interior_compressed_kernel(
    const double* STTSV_RESTRICT data, std::size_t i0, std::size_t i_end,
    std::size_t j0, std::size_t j_end, std::size_t k0, std::size_t k_end,
    const double* STTSV_RESTRICT xi, const double* STTSV_RESTRICT xj,
    const double* STTSV_RESTRICT xk, double* STTSV_RESTRICT yi,
    double* STTSV_RESTRICT yj, double* STTSV_RESTRICT yk,
    CompressedScratch& scr) {
  const std::size_t bi = i_end - i0;
  const std::size_t bj = j_end - j0;
  const std::size_t bk = k_end - k0;
  scr.ensure(bi, bj, bk);
  for (std::size_t li = 0; li < bi; ++li) scr.x2i[li] = xi[li] * xi[li];
  for (std::size_t lj = 0; lj < bj; ++lj) scr.x2j[lj] = xj[lj] * xj[lj];
  for (std::size_t lk = 0; lk < bk; ++lk) scr.x2k[lk] = xk[lk] * xk[lk];

  // Pass 1: one bilinear product p = a·(x_i+x_j+x_k)² per entry,
  // scattered to the three per-fiber product sums, plus the adds-only
  // marginals σ = Σ_k a, τ = Σ_j a, ρ = Σ_i a.
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const double xiv = xi[li];
    const std::size_t gi_base = gi * (gi + 1) * (gi + 2) / 6;
    double* STTSV_RESTRICT sig_row = scr.sig.data() + li * bj;
    double* STTSV_RESTRICT tau_row = scr.tau.data() + li * bk;
    double pi_acc = 0.0;
    for (std::size_t gj = j0; gj < j_end; ++gj) {
      const std::size_t lj = gj - j0;
      const double zij = xiv + xj[lj];
      const double* STTSV_RESTRICT row =
          data + gi_base + gj * (gj + 1) / 2 + k0;
      double* STTSV_RESTRICT rho_row = scr.rho.data() + lj * bk;
      double* STTSV_RESTRICT pk_sum = scr.pk.data();
      const V zijv = V::broadcast(zij);
      V psum = V::zero();
      V vsum = V::zero();
      std::size_t lk = 0;
      for (; lk + simt::simd::kLanes <= bk; lk += simt::simd::kLanes) {
        const V vv = V::load(row + lk);
        const V zv = zijv + V::load(xk + lk);
        const V pv = vv * (zv * zv);
        psum = psum + pv;
        vsum = vsum + vv;
        (V::load(pk_sum + lk) + pv).store(pk_sum + lk);
        (V::load(tau_row + lk) + vv).store(tau_row + lk);
        (V::load(rho_row + lk) + vv).store(rho_row + lk);
      }
      double psum_s = psum.reduce();
      double vsum_s = vsum.reduce();
      for (; lk < bk; ++lk) {
        const double v = row[lk];
        const double z = zij + xk[lk];
        const double p = v * (z * z);
        psum_s += p;
        vsum_s += v;
        pk_sum[lk] += p;
        tau_row[lk] += v;
        rho_row[lk] += v;
      }
      pi_acc += psum_s;
      scr.pj[lj] += psum_s;
      sig_row[lj] = vsum_s;
    }
    // Finalize y_i: 2x_jx_k = z² − (x_j²+x_k²) − x_i² − 2x_i(x_j+x_k).
    V sv = V::zero();
    V qv = V::zero();
    V rv = V::zero();
    std::size_t lj = 0;
    for (; lj + simt::simd::kLanes <= bj; lj += simt::simd::kLanes) {
      const V sgv = V::load(sig_row + lj);
      sv = sv + sgv;
      qv = V::fmadd(V::load(scr.x2j.data() + lj), sgv, qv);
      rv = V::fmadd(V::load(xj + lj), sgv, rv);
    }
    double s = sv.reduce();
    double q = qv.reduce();
    double r = rv.reduce();
    for (; lj < bj; ++lj) {
      s += sig_row[lj];
      q += scr.x2j[lj] * sig_row[lj];
      r += xj[lj] * sig_row[lj];
    }
    V q2v = V::zero();
    V r2v = V::zero();
    std::size_t lk = 0;
    for (; lk + simt::simd::kLanes <= bk; lk += simt::simd::kLanes) {
      const V tv = V::load(tau_row + lk);
      q2v = V::fmadd(V::load(scr.x2k.data() + lk), tv, q2v);
      r2v = V::fmadd(V::load(xk + lk), tv, r2v);
    }
    q += q2v.reduce();
    r += r2v.reduce();
    for (; lk < bk; ++lk) {
      q += scr.x2k[lk] * tau_row[lk];
      r += xk[lk] * tau_row[lk];
    }
    yi[li] += pi_acc - q - scr.x2i[li] * s - 2.0 * (xiv * r);
  }

  // Finalize y_j from σ columns and ρ rows.
  for (std::size_t lj = 0; lj < bj; ++lj) {
    double s = 0.0;
    double q = 0.0;
    double r = 0.0;
    for (std::size_t li = 0; li < bi; ++li) {
      const double sg = scr.sig[li * bj + lj];
      s += sg;
      q += scr.x2i[li] * sg;
      r += xi[li] * sg;
    }
    const double* STTSV_RESTRICT rho_row = scr.rho.data() + lj * bk;
    for (std::size_t lk = 0; lk < bk; ++lk) {
      q += scr.x2k[lk] * rho_row[lk];
      r += xk[lk] * rho_row[lk];
    }
    yj[lj] += scr.pj[lj] - q - scr.x2j[lj] * s - 2.0 * (xj[lj] * r);
  }

  // Finalize y_k from τ and ρ columns.
  for (std::size_t lk = 0; lk < bk; ++lk) {
    double s = 0.0;
    double q = 0.0;
    double r = 0.0;
    for (std::size_t li = 0; li < bi; ++li) {
      const double tv = scr.tau[li * bk + lk];
      s += tv;
      q += scr.x2i[li] * tv;
      r += xi[li] * tv;
    }
    for (std::size_t lj = 0; lj < bj; ++lj) {
      const double rv = scr.rho[lj * bk + lk];
      q += scr.x2j[lj] * rv;
      r += xj[lj] * rv;
    }
    yk[lk] += scr.pk[lk] - q - scr.x2k[lk] * s - 2.0 * (xk[lk] * r);
  }

  const std::uint64_t i64 = bi;
  const std::uint64_t j64 = bj;
  const std::uint64_t k64 = bk;
  return i64 * j64 * k64 + 4 * (i64 * j64 + i64 * k64 + j64 * k64) +
         3 * (i64 + j64 + k64);
}

// ---------------------------------------------------------------------------
// Dispatch table.
// ---------------------------------------------------------------------------

/// Function-pointer table of one ISA instantiation. interior/face_ij are
/// indexed by register-block shape (RJ = 1, 2, 4 → index 0, 1, 2).
struct KernelVTable {
  using StrictFn = std::uint64_t (*)(const double*, std::size_t, std::size_t,
                                     std::size_t, std::size_t, std::size_t,
                                     std::size_t, const double*, const double*,
                                     const double*, double*, double*, double*);
  using FaceIjFn = std::uint64_t (*)(const double*, std::size_t, std::size_t,
                                     std::size_t, std::size_t, const double*,
                                     const double*, double*, double*);
  using FaceJkFn = std::uint64_t (*)(const double*, std::size_t, std::size_t,
                                     std::size_t, std::size_t, const double*,
                                     const double*, double*, double*);
  using CentralFn = std::uint64_t (*)(const double*, std::size_t, std::size_t,
                                      const double*, double*);
  using CompressedFn = std::uint64_t (*)(const double*, std::size_t,
                                         std::size_t, std::size_t, std::size_t,
                                         std::size_t, std::size_t,
                                         const double*, const double*,
                                         const double*, double*, double*,
                                         double*, CompressedScratch&);
  StrictFn interior[3];
  FaceIjFn face_ij[3];
  FaceJkFn face_jk;
  CentralFn central;
  CompressedFn interior_compressed;
};

template <class V>
KernelVTable make_kernel_vtable() {
  KernelVTable t;
  t.interior[0] = &interior_kernel<V, 1>;
  t.interior[1] = &interior_kernel<V, 2>;
  t.interior[2] = &interior_kernel<V, 4>;
  t.face_ij[0] = &face_ij_kernel<V, 1>;
  t.face_ij[1] = &face_ij_kernel<V, 2>;
  t.face_ij[2] = &face_ij_kernel<V, 4>;
  t.face_jk = &face_jk_kernel<V>;
  t.central = &central_kernel<V>;
  t.interior_compressed = &interior_compressed_kernel<V>;
  return t;
}

/// Defined in block_kernels_avx2.cpp when the build compiles the AVX2
/// kernel TU (STTSV_HAVE_AVX2_KERNELS).
const KernelVTable& avx2_kernel_vtable();

}  // namespace sttsv::core::detail
