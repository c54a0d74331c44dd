#pragma once
// Portable SIMD layer for the local kernels (DESIGN.md §13).
//
// Two pieces live here:
//
//  1. Runtime CPU-feature detection and kernel-ISA selection. The build
//     may compile AVX2 kernel translation units (STTSV_ENABLE_SIMD,
//     defines STTSV_HAVE_AVX2_KERNELS) and, where the compiler accepts
//     -mavx512f, an AVX-512 panel-kernel TU (STTSV_HAVE_AVX512_KERNELS);
//     whether they are *used* is decided at runtime from a cached CPUID
//     probe plus an explicit kill switch (set_simd_enabled / environment
//     variable STTSV_SIMD=off). Scalar fallback kernels are always built,
//     so a binary compiled with SIMD on still runs correctly on a machine
//     without AVX2 or FMA.
//
//  2. Double vector types. The kernel bodies are written once as
//     templates over a vector type V and instantiated up to three times:
//     VecScalar (plain double[4], compiles everywhere) in the portable
//     translation units, VecAvx2 (__m256d) in TUs compiled with -mavx2
//     -mfma, and VecAvx512 (__m512d, 8 lanes) in the panel-kernel TU
//     compiled with -mavx512f (its fused multiply-add is part of
//     AVX-512F). The core kernels' 4 k-partials are the canonical order,
//     so only the panel kernels, whose vector lanes are panel lanes, take
//     the 8-wide type. Every type implements each operation with the same
//     IEEE arithmetic per lane — fmadd is the correctly rounded
//     fusedMultiplyAdd in all three — so all instantiations produce
//     bitwise-identical results: the repo's bitwise-`y` invariant holds
//     whichever path the dispatcher picks.
//
// All kernel TUs are compiled with -ffp-contract=off, so the compiler
// cannot fuse the remaining mul/add pairs (compound coefficients, tail
// formulas) in one TU and not in another and silently break the bitwise
// contract; the kernels fuse exactly where they call fmadd.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

#if defined(__AVX2__) && defined(__FMA__) && \
    (defined(__x86_64__) || defined(_M_X64))
#define STTSV_SIMD_TU_HAS_AVX2 1
#endif
#if defined(__AVX512F__) && (defined(__x86_64__) || defined(_M_X64))
#define STTSV_SIMD_TU_HAS_AVX512 1
#endif
#if defined(STTSV_SIMD_TU_HAS_AVX2) || defined(STTSV_SIMD_TU_HAS_AVX512)
#include <immintrin.h>
#endif

namespace sttsv::simt {

/// Cached CPUID probe (satellite: self-describing BENCH artifacts print
/// these). All fields false on non-x86 hosts or unknown compilers.
struct CpuFeatures {
  bool sse2 = false;
  bool avx = false;
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
};

/// Returns the host CPU features; the probe runs once and is cached.
const CpuFeatures& cpu_features();

/// Space-separated feature list, e.g. "sse2 avx avx2 fma" ("none" if the
/// probe found nothing).
std::string cpu_features_string();

/// Which kernel implementation the dispatcher runs. kAvx512 runs the
/// panel kernels 8 lanes wide and the core kernels as kAvx2 does.
enum class KernelIsa : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

const char* isa_name(KernelIsa isa);

/// True when the AVX2 kernel translation units were compiled into this
/// binary (STTSV_ENABLE_SIMD build option).
bool simd_compiled();

/// Runtime kill switch. Starts from the environment: STTSV_SIMD=off|0|
/// scalar forces the scalar fallback (CI uses this to exercise it on
/// AVX2 hosts). Thread-safe.
void set_simd_enabled(bool enabled);
bool simd_enabled();

/// The ISA the kernel dispatchers run when `requested` is asked for on a
/// host with features `host`. kAvx512 needs the AVX-512 panel TU and
/// CPUID AVX2, FMA and AVX-512F; kAvx2, and kAvx512 where that fails,
/// needs the AVX2 TUs and CPUID AVX2 and FMA; everything else runs
/// kScalar. The runtime switch is not consulted: an explicit request
/// still runs.
KernelIsa dispatch_isa(KernelIsa requested, const CpuFeatures& host);

/// The ISA the kernel dispatchers use by default: kScalar when the
/// runtime switch is off, else dispatch_isa(kAvx512, cpu_features()).
KernelIsa preferred_isa();

namespace simd {

/// Number of partial accumulators in the canonical reduction order
/// (DESIGN.md §13.1), fixed at 4 for every instantiation; also the lane
/// count of the 4-wide types, the narrowest panel chunk.
inline constexpr std::size_t kLanes = 4;

/// Portable 4-lane vector: the scalar fallback instantiation. Each
/// operation performs exactly one IEEE arithmetic op per lane, mirroring
/// the AVX2 instructions lane-for-lane; fmadd is std::fma per lane (a
/// libm call unless the TU is built with FMA).
struct VecScalar {
  static constexpr std::size_t kWidth = kLanes;  ///< panel lanes per chunk
  double v[kLanes];

  static VecScalar zero() { return {{0.0, 0.0, 0.0, 0.0}}; }
  static VecScalar broadcast(double s) { return {{s, s, s, s}}; }
  static VecScalar load(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
  /// First m lanes from p, remaining lanes zero. Never reads p[m..].
  static VecScalar load_partial(const double* p, std::size_t m) {
    VecScalar r = zero();
    for (std::size_t t = 0; t < m; ++t) r.v[t] = p[t];
    return r;
  }
  void store(double* p) const {
    for (std::size_t t = 0; t < kLanes; ++t) p[t] = v[t];
  }
  /// Stores the first m lanes only.
  void store_partial(double* p, std::size_t m) const {
    for (std::size_t t = 0; t < m; ++t) p[t] = v[t];
  }
  friend VecScalar operator+(VecScalar a, VecScalar b) {
    return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
             a.v[3] + b.v[3]}};
  }
  friend VecScalar operator*(VecScalar a, VecScalar b) {
    return {{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2],
             a.v[3] * b.v[3]}};
  }
  /// c + a·b per lane with one rounding (IEEE fusedMultiplyAdd).
  friend VecScalar fmadd(VecScalar a, VecScalar b, VecScalar c) {
    return {{std::fma(a.v[0], b.v[0], c.v[0]),
             std::fma(a.v[1], b.v[1], c.v[1]),
             std::fma(a.v[2], b.v[2], c.v[2]),
             std::fma(a.v[3], b.v[3], c.v[3])}};
  }
  /// Canonical horizontal sum: (v0 + v1) + (v2 + v3). Every
  /// instantiation must combine in exactly this order.
  double reduce() const { return (v[0] + v[1]) + (v[2] + v[3]); }
};

#ifdef STTSV_SIMD_TU_HAS_AVX2

/// AVX2 instantiation: one ymm register. Compiled only in TUs built with
/// -mavx2 -mfma; executed only when the dispatcher resolves kAvx2 or
/// kAvx512 (dispatch_isa).
struct VecAvx2 {
  static constexpr std::size_t kWidth = kLanes;  ///< panel lanes per chunk
  __m256d v;

  static VecAvx2 zero() { return {_mm256_setzero_pd()}; }
  static VecAvx2 broadcast(double s) { return {_mm256_set1_pd(s)}; }
  static VecAvx2 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static __m256i partial_mask(std::size_t m) {
    // Lane t is active iff t < m; maskload/maskstore never touch memory
    // of inactive lanes, which is what makes padded tails safe.
    alignas(32) static const std::int64_t table[8] = {-1, -1, -1, -1,
                                                      0,  0,  0,  0};
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(table + (4 - m)));
  }
  static VecAvx2 load_partial(const double* p, std::size_t m) {
    return {_mm256_maskload_pd(p, partial_mask(m))};
  }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  void store_partial(double* p, std::size_t m) const {
    _mm256_maskstore_pd(p, partial_mask(m), v);
  }
  friend VecAvx2 operator+(VecAvx2 a, VecAvx2 b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend VecAvx2 operator*(VecAvx2 a, VecAvx2 b) {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  /// c + a·b per lane with one rounding, bitwise identical to
  /// VecScalar's fmadd.
  friend VecAvx2 fmadd(VecAvx2 a, VecAvx2 b, VecAvx2 c) {
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
  }
  /// (v0 + v1) + (v2 + v3), bitwise identical to VecScalar::reduce.
  double reduce() const {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_hadd_pd(lo, hi);  // (v0+v1, v2+v3)
    return _mm_cvtsd_f64(
        _mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  }
};

#endif  // STTSV_SIMD_TU_HAS_AVX2

#ifdef STTSV_SIMD_TU_HAS_AVX512

/// AVX-512 instantiation of the panel kernels: one zmm register holds 8
/// panel lanes. Compiled only in the TU built with -mavx512f; executed
/// only when the dispatcher resolves kAvx512. It has no reduce and no
/// masks, because the panel kernels use neither.
struct VecAvx512 {
  static constexpr std::size_t kWidth = 8;  ///< panel lanes per chunk
  __m512d v;

  static VecAvx512 zero() { return {_mm512_setzero_pd()}; }
  static VecAvx512 broadcast(double s) { return {_mm512_set1_pd(s)}; }
  static VecAvx512 load(const double* p) { return {_mm512_loadu_pd(p)}; }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
  friend VecAvx512 operator+(VecAvx512 a, VecAvx512 b) {
    return {_mm512_add_pd(a.v, b.v)};
  }
  friend VecAvx512 operator*(VecAvx512 a, VecAvx512 b) {
    return {_mm512_mul_pd(a.v, b.v)};
  }
  /// c + a·b per lane with one rounding (AVX-512F), bitwise identical to
  /// VecScalar's fmadd.
  friend VecAvx512 fmadd(VecAvx512 a, VecAvx512 b, VecAvx512 c) {
    return {_mm512_fmadd_pd(a.v, b.v, c.v)};
  }
};

#endif  // STTSV_SIMD_TU_HAS_AVX512

}  // namespace simd
}  // namespace sttsv::simt
