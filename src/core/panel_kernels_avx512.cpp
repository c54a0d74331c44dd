// AVX-512 instantiation of the panel kernels: 8 panel lanes per zmm
// register. Compiled only when STTSV_ENABLE_SIMD resolves and the
// compiler accepts -mavx512f, with -mavx512f -ffp-contract=off (the
// contraction ban keeps the bitwise contract with the scalar and AVX2
// instantiations — see panel_kernels_impl.hpp); executed only when the
// dispatcher selects simt::KernelIsa::kAvx512. The core kernels have no
// 8-wide form, so this TU holds the panel kernels only. It must emit
// nothing but VecAvx512 instantiations and its vtable: an AVX-512 copy
// of an inline function the other tiers call could be the one the linker
// keeps, and would fault on a host without AVX-512.

#include "core/panel_kernels_impl.hpp"

#ifndef STTSV_SIMD_TU_HAS_AVX512
#error "panel_kernels_avx512.cpp must be compiled with -mavx512f"
#endif

namespace sttsv::core::detail {

const PanelVTable& avx512_panel_vtable() {
  static const PanelVTable t = make_panel_vtable<simt::simd::VecAvx512>();
  return t;
}

}  // namespace sttsv::core::detail
