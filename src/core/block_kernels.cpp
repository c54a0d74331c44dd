#include "core/block_kernels.hpp"

#include <algorithm>

#include "core/block_kernels_impl.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

// This translation unit instantiates the canonical kernels with the
// portable scalar vector type. It is compiled with -ffp-contract=off
// (see src/core/CMakeLists.txt) so the compiler cannot fuse the
// mul/add pairs into FMAs and break the bitwise contract with the AVX2
// instantiation (DESIGN.md §13.1).

namespace sttsv::core {

namespace {

using detail::KernelVTable;

const KernelVTable& scalar_vtable() {
  static const KernelVTable t =
      detail::make_kernel_vtable<simt::simd::VecScalar>();
  return t;
}

const KernelVTable& vtable_for(simt::KernelIsa isa) {
#ifdef STTSV_HAVE_AVX2_KERNELS
  if (isa == simt::KernelIsa::kAvx2 && simt::cpu_features().avx2) {
    return detail::avx2_kernel_vtable();
  }
#else
  (void)isa;
#endif
  // Requesting kAvx2 without compiled-in AVX2 kernels (or on a host
  // without AVX2) silently falls back — bitwise identical anyway.
  return scalar_vtable();
}

}  // namespace

std::uint64_t apply_block_generic(const tensor::SymTensor3& a,
                                  const partition::BlockCoord& c,
                                  std::size_t b, const BlockBuffers& buf) {
  STTSV_REQUIRE(c.i >= c.j && c.j >= c.k, "block coordinate must be sorted");
  for (int s = 0; s < 3; ++s) {
    STTSV_REQUIRE(buf.x[s] != nullptr && buf.y[s] != nullptr,
                  "kernel buffers must be bound");
  }
  const std::size_t n = a.dim();
  const double* data = a.data();

  const std::size_t i0 = c.i * b;
  const std::size_t j0 = c.j * b;
  const std::size_t k0 = c.k * b;
  const std::size_t i_end = std::min(i0 + b, n);
  const std::size_t j_end = std::min(j0 + b, n);
  const std::size_t k_end = std::min(k0 + b, n);
  if (i0 >= n) return 0;  // fully padded block

  const bool ij_same_block = (c.i == c.j);
  const bool jk_same_block = (c.j == c.k);

  const double* xi = buf.x[0];
  const double* xj = buf.x[1];
  const double* xk = buf.x[2];
  double* yi = buf.y[0];
  double* yj = buf.y[1];
  double* yk = buf.y[2];

  std::uint64_t count = 0;
  for (std::size_t gi = i0; gi < i_end; ++gi) {
    const std::size_t li = gi - i0;
    const double xiv = xi[li];
    // Only gj <= gi contributes when i and j ranges coincide.
    const std::size_t gj_end = ij_same_block ? std::min(gi + 1, j_end) : j_end;
    for (std::size_t gj = j0; gj < gj_end; ++gj) {
      const std::size_t lj = gj - j0;
      const double xjv = xj[lj];
      const std::size_t row = detail::packed_row_base(gi, gj);
      const std::size_t gk_end =
          jk_same_block ? std::min(gj + 1, k_end) : k_end;
      if (gi != gj) {
        // Strict gi > gj: the gk loop splits into a strict run gk < gj
        // (3 updates each) and the possible gk == gj tail (2 updates).
        std::size_t gk = k0;
        const std::size_t strict_end = std::min(gk_end, gj);
        for (; gk < strict_end; ++gk) {
          const double v = data[row + gk];
          const double xkv = xk[gk - k0];
          yi[li] += 2.0 * v * xjv * xkv;
          yj[lj] += 2.0 * v * xiv * xkv;
          yk[gk - k0] += 2.0 * v * xiv * xjv;
          count += 3;
        }
        if (gk < gk_end && gk == gj) {
          // gi > gj == gk.
          const double v = data[row + gk];
          const double xkv = xk[gk - k0];
          yi[li] += v * xjv * xkv;
          yj[lj] += 2.0 * v * xiv * xkv;
          count += 2;
        }
      } else {
        // gi == gj (only in diagonal blocks).
        std::size_t gk = k0;
        const std::size_t strict_end = std::min(gk_end, gj);
        for (; gk < strict_end; ++gk) {
          // gi == gj > gk.
          const double v = data[row + gk];
          const double xkv = xk[gk - k0];
          yi[li] += 2.0 * v * xjv * xkv;
          yk[gk - k0] += v * xiv * xjv;
          count += 2;
        }
        if (gk < gk_end && gk == gj) {
          // gi == gj == gk: central element.
          const double v = data[row + gk];
          yi[li] += v * xjv * xk[gk - k0];
          count += 1;
        }
      }
    }
  }
  return count;
}

std::uint64_t apply_block_isa(const tensor::SymTensor3& a,
                              const partition::BlockCoord& c, std::size_t b,
                              const BlockBuffers& buf, simt::KernelIsa isa) {
  STTSV_REQUIRE(c.i >= c.j && c.j >= c.k, "block coordinate must be sorted");
  for (int s = 0; s < 3; ++s) {
    STTSV_REQUIRE(buf.x[s] != nullptr && buf.y[s] != nullptr,
                  "kernel buffers must be bound");
  }
  const std::size_t n = a.dim();
  const std::size_t i0 = c.i * b;
  const std::size_t j0 = c.j * b;
  const std::size_t k0 = c.k * b;
  if (i0 >= n) return 0;  // fully padded block
  // i0 < n implies k0 <= j0 <= i0 < n for every coordinate, so each range
  // below is non-empty.
  const std::size_t i_end = std::min(i0 + b, n);
  const std::size_t j_end = std::min(j0 + b, n);
  const std::size_t k_end = std::min(k0 + b, n);

  obs::Span span("kernel.block", obs::Category::kKernel);
  const KernelVTable& vt = vtable_for(isa);
  std::uint64_t mults = 0;
  if (c.i > c.j && c.j > c.k) {
    mults = vt.interior(a.data(), i0, i_end, j0, j_end, k0, k_end, buf.x[0],
                        buf.x[1], buf.x[2], buf.y[0], buf.y[1], buf.y[2]);
  } else if (c.i == c.j && c.j > c.k) {
    // Slots 0 and 1 view the same row block (aliased by contract).
    mults = vt.face_ij(a.data(), i0, i_end, k0, k_end, buf.x[0], buf.x[2],
                       buf.y[0], buf.y[2]);
  } else if (c.i > c.j && c.j == c.k) {
    // Slots 1 and 2 view the same row block (aliased by contract).
    mults = vt.face_jk(a.data(), i0, i_end, j0, j_end, buf.x[0], buf.x[1],
                       buf.y[0], buf.y[1]);
  } else {
    // Central diagonal block: all three slots alias one buffer.
    mults = vt.central(a.data(), i0, i_end, buf.x[0], buf.y[0]);
  }
  span.set_arg(mults);
  return mults;
}

std::uint64_t apply_block(const tensor::SymTensor3& a,
                          const partition::BlockCoord& c, std::size_t b,
                          const BlockBuffers& buf) {
  return apply_block_isa(a, c, b, buf, simt::preferred_isa());
}

}  // namespace sttsv::core
