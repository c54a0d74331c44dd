#include "core/block_kernels.hpp"

#include <algorithm>

#include "core/block_kernels_impl.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

// This translation unit instantiates the canonical kernels with the
// portable scalar vector type. It is compiled with -ffp-contract=off
// (see src/core/CMakeLists.txt): the kernels fuse exactly where they call
// fmadd / std::fma (here a libm call, correctly rounded like the AVX2
// instruction), and the compiler must not fuse any other mul/add pair
// here and not in the AVX2 instantiation (DESIGN.md §13.1).

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
  // The core kernels have no 8-wide form: kAvx512 runs them as kAvx2.
  if (simt::dispatch_isa(isa, simt::cpu_features()) !=
      simt::KernelIsa::kScalar) {
    return detail::avx2_kernel_vtable();
  }
#else
  (void)isa;
#endif
  // An ISA the build or the host cannot run (no AVX2 kernels, no AVX2 or
  // no FMA) silently falls back — bitwise identical anyway.
  return scalar_vtable();
}

}  // namespace

namespace detail {

void require_block_slots(const partition::BlockCoord& c,
                         const double* const (&x)[3],
                         double* const (&y)[3]) {
  STTSV_REQUIRE(c.i >= c.j && c.j >= c.k, "block coordinate must be sorted");
  for (int s = 0; s < 3; ++s) {
    STTSV_REQUIRE(x[s] != nullptr && y[s] != nullptr,
                  "kernel buffers must be bound");
  }
  // The class kernels read and write an equal coordinate through one
  // slot only, so a second buffer there would be silently ignored.
  STTSV_REQUIRE(c.i != c.j || (x[0] == x[1] && y[0] == y[1]),
                "slots 0 and 1 of a block with c.i == c.j must alias");
  STTSV_REQUIRE(c.j != c.k || (x[1] == x[2] && y[1] == y[2]),
                "slots 1 and 2 of a block with c.j == c.k must alias");
}

std::uint64_t block_lane_mults(const partition::BlockCoord& c, std::uint64_t ni,
                               std::uint64_t nj, std::uint64_t nk) {
  if (c.i > c.j && c.j > c.k) return 3 * ni * nj * nk;
  if (c.j > c.k) return nk * (3 * (ni * (ni - 1) / 2) + 2 * ni);  // face_ij
  if (c.i > c.j) return ni * (3 * (nj * (nj - 1) / 2) + 2 * nj);  // face_jk
  // Central: 3·C(e,3) strict + 2·2·C(e,2) face + e central elements.
  return ni * (ni - 1) * (ni - 2) / 2 + 2 * ni * (ni - 1) + ni;
}

}  // namespace detail

std::uint64_t apply_block_generic(const tensor::SymTensor3& a,
                                  const partition::BlockCoord& c,
                                  std::size_t b, const BlockBuffers& buf) {
  STTSV_REQUIRE(c.i >= c.j && c.j >= c.k, "block coordinate must be sorted");
  STTSV_REQUIRE(buf.lanes == 1, "the generic kernel takes one lane");
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
  detail::require_block_slots(c, buf.x, buf.y);
  STTSV_REQUIRE(buf.lanes >= 1 && buf.lanes <= kMaxBlockLanes,
                "core kernels take 1 to 3 lanes");
  STTSV_REQUIRE(buf.lanes == 1 || buf.lane_stride >= b,
                "lanes of one slot must not overlap");
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
  const std::size_t l = buf.lanes - 1;
  const std::size_t stride = buf.lane_stride;
  if (c.i > c.j && c.j > c.k) {
    vt.interior[l](a.data(), i0, i_end, j0, j_end, k0, k_end, buf.x[0],
                   buf.x[1], buf.x[2], buf.y[0], buf.y[1], buf.y[2], stride);
  } else if (c.i == c.j && c.j > c.k) {
    // Slots 0 and 1 view the same row block (aliased by contract).
    vt.face_ij[l](a.data(), i0, i_end, k0, k_end, buf.x[0], buf.x[2],
                  buf.y[0], buf.y[2], stride);
  } else if (c.i > c.j && c.j == c.k) {
    // Slots 1 and 2 view the same row block (aliased by contract).
    vt.face_jk[l](a.data(), i0, i_end, j0, j_end, buf.x[0], buf.x[1],
                  buf.y[0], buf.y[1], stride);
  } else {
    // Central diagonal block: all three slots alias one buffer.
    vt.central[l](a.data(), i0, i_end, buf.x[0], buf.y[0], stride);
  }
  const std::uint64_t mults =
      buf.lanes *
      detail::block_lane_mults(c, i_end - i0, j_end - j0, k_end - k0);
  span.set_arg(mults);
  return mults;
}

std::uint64_t apply_block(const tensor::SymTensor3& a,
                          const partition::BlockCoord& c, std::size_t b,
                          const BlockBuffers& buf) {
  return apply_block_isa(a, c, b, buf, simt::preferred_isa());
}

}  // namespace sttsv::core
