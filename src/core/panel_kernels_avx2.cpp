// AVX2 instantiation of the panel kernels. Compiled only when
// STTSV_ENABLE_SIMD resolves, with -mavx2 -mfma -ffp-contract=off (the
// contraction ban keeps the bitwise contract with the scalar
// instantiation — see panel_kernels_impl.hpp). Like the AVX-512 TU it
// must emit nothing but VecAvx2 instantiations and its vtable.

#include "core/panel_kernels_impl.hpp"

#ifndef STTSV_SIMD_TU_HAS_AVX2
#error "panel_kernels_avx2.cpp must be compiled with -mavx2 -mfma"
#endif

namespace sttsv::core::detail {

const PanelVTable& avx2_panel_vtable() {
  static const PanelVTable t = make_panel_vtable<simt::simd::VecAvx2>();
  return t;
}

}  // namespace sttsv::core::detail
