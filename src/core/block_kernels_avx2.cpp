// AVX2 instantiation of the canonical block kernels. Compiled only when
// STTSV_ENABLE_SIMD resolves (see src/core/CMakeLists.txt) with -mavx2
// -mfma -ffp-contract=off; executed only when the runtime dispatcher
// resolves simt::KernelIsa::kAvx2 or kAvx512 (CPUID AVX2 and FMA). The
// kernels' fmadd / std::fma calls compile to vfmadd here; the
// -ffp-contract=off keeps GCC from fusing any other _mm256_mul_pd /
// _mm256_add_pd pair (compound coefficients, tail formulas), which would
// break the bitwise contract with the scalar instantiation (DESIGN.md
// §13.1).

#include "core/block_kernels_impl.hpp"

#ifndef STTSV_SIMD_TU_HAS_AVX2
#error "block_kernels_avx2.cpp must be compiled with -mavx2 -mfma"
#endif

namespace sttsv::core::detail {

const KernelVTable& avx2_kernel_vtable() {
  static const KernelVTable t = make_kernel_vtable<simt::simd::VecAvx2>();
  return t;
}

}  // namespace sttsv::core::detail
