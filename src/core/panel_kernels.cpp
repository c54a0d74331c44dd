#include "core/panel_kernels.hpp"

#include <algorithm>
#include <vector>

#include "core/block_kernels.hpp"
#include "core/panel_kernels_impl.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

// Portable instantiation of the panel kernels (VecScalar). Compiled with
// -ffp-contract=off — see the bitwise contract in panel_kernels_impl.hpp.

namespace sttsv::core {

namespace {

using detail::PanelVTable;

const PanelVTable& scalar_vtable() {
  static const PanelVTable t =
      detail::make_panel_vtable<simt::simd::VecScalar>();
  return t;
}

const PanelVTable& vtable_for(simt::KernelIsa isa) {
#ifdef STTSV_HAVE_AVX2_KERNELS
  if (isa == simt::KernelIsa::kAvx2 && simt::cpu_features().avx2) {
    return detail::avx2_panel_vtable();
  }
#else
  (void)isa;
#endif
  return scalar_vtable();
}

/// Runs panel lane v through apply_block_isa. At lanes == 1 the
/// panel is already the contiguous single-vector layout and runs in
/// place; otherwise the lane's first len[s] elements of each distinct
/// slot are gathered into per-thread scratch (aliased diagonal slots stay
/// aliased), and the y slices are scattered back afterwards.
void run_lane_on_core(const tensor::SymTensor3& a,
                      const partition::BlockCoord& c, std::size_t b,
                      std::size_t lanes, const PanelBuffers& buf,
                      std::size_t v, const std::size_t (&len)[3],
                      simt::KernelIsa isa) {
  BlockBuffers lane;
  if (lanes == 1) {
    std::copy_n(buf.x, 3, lane.x);
    std::copy_n(buf.y, 3, lane.y);
    apply_block_isa(a, c, b, lane, isa);
    return;
  }
  thread_local std::vector<double> scratch;
  if (scratch.size() < 6 * b) scratch.resize(6 * b);
  const std::size_t block[3] = {c.i, c.j, c.k};
  const auto aliased = [&](std::size_t s) {
    return s > 0 && block[s] == block[s - 1];
  };
  for (std::size_t s = 0; s < 3; ++s) {
    if (aliased(s)) {
      lane.x[s] = lane.x[s - 1];
      lane.y[s] = lane.y[s - 1];
      continue;
    }
    double* xs = scratch.data() + s * b;
    double* ys = scratch.data() + (3 + s) * b;
    for (std::size_t l = 0; l < len[s]; ++l) {
      xs[l] = buf.x[s][l * lanes + v];
      ys[l] = buf.y[s][l * lanes + v];
    }
    lane.x[s] = xs;
    lane.y[s] = ys;
  }
  apply_block_isa(a, c, b, lane, isa);
  for (std::size_t s = 0; s < 3; ++s) {
    if (aliased(s)) continue;
    for (std::size_t l = 0; l < len[s]; ++l) {
      buf.y[s][l * lanes + v] = lane.y[s][l];
    }
  }
}

}  // namespace

std::uint64_t apply_block_panel_isa(const tensor::SymTensor3& a,
                                    const partition::BlockCoord& c,
                                    std::size_t b, std::size_t lanes,
                                    const PanelBuffers& buf,
                                    simt::KernelIsa isa) {
  STTSV_REQUIRE(c.i >= c.j && c.j >= c.k, "block coordinate must be sorted");
  STTSV_REQUIRE(lanes >= 1, "panel needs at least one lane");
  for (int s = 0; s < 3; ++s) {
    STTSV_REQUIRE(buf.x[s] != nullptr && buf.y[s] != nullptr,
                  "panel buffers must be bound");
  }
  const std::size_t n = a.dim();
  const std::size_t i0 = c.i * b;
  const std::size_t j0 = c.j * b;
  const std::size_t k0 = c.k * b;
  if (i0 >= n) return 0;  // fully padded block
  const std::size_t i_end = std::min(i0 + b, n);
  const std::size_t j_end = std::min(j0 + b, n);
  const std::size_t k_end = std::min(k0 + b, n);

  obs::Span span("kernel.panel", obs::Category::kKernel);
  const PanelVTable& vt = vtable_for(isa);
  constexpr std::size_t kW = simt::simd::kLanes;

  // Whole vector-width lane chunks run the panel kernels in one walk of
  // the block; the lanes % kW left over run one by one on the core
  // kernels. Lanes never mix arithmetically, so the split is invisible to
  // the bitwise contract.
  const std::size_t chunks = lanes / kW;
  const std::size_t whole = chunks * kW;
  std::uint64_t mults = 0;  // per lane
  if (c.i > c.j && c.j > c.k) {
    vt.interior(a.data(), i0, i_end, j0, j_end, k0, k_end, buf.x[0],
                buf.x[1], buf.x[2], buf.y[0], buf.y[1], buf.y[2], lanes,
                chunks);
    mults = 3 * static_cast<std::uint64_t>(i_end - i0) * (j_end - j0) *
            (k_end - k0);
  } else if (c.i == c.j && c.j > c.k) {
    // Slots 0 and 1 view the same row block (aliased by contract).
    vt.face_ij(a.data(), i0, i_end, k0, k_end, buf.x[0], buf.x[2], buf.y[0],
               buf.y[2], lanes, chunks);
    const std::uint64_t ni = i_end - i0;
    mults = (k_end - k0) * (3 * (ni * (ni - 1) / 2) + 2 * ni);
  } else if (c.i > c.j && c.j == c.k) {
    // Slots 1 and 2 view the same row block (aliased by contract).
    vt.face_jk(a.data(), i0, i_end, j0, j_end, buf.x[0], buf.x[1], buf.y[0],
               buf.y[1], lanes, chunks);
    const std::uint64_t ni = i_end - i0;
    const std::uint64_t nj = j_end - j0;
    mults = ni * (3 * (nj * (nj - 1) / 2) + 2 * nj);
  } else {
    // Central diagonal block: all three slots alias one panel pair.
    vt.central(a.data(), i0, i_end, buf.x[0], buf.y[0], lanes, chunks);
    // 3·C(e,3) strict + 2·2·C(e,2) face + e central elements per lane.
    const std::uint64_t e = i_end - i0;
    mults = e * (e - 1) * (e - 2) / 2 + 2 * e * (e - 1) + e;
  }
  if (whole < lanes) {
    const std::size_t len[3] = {i_end - i0, j_end - j0, k_end - k0};
    for (std::size_t v = whole; v < lanes; ++v) {
      run_lane_on_core(a, c, b, lanes, buf, v, len, isa);
    }
  }
  mults *= lanes;
  span.set_arg(mults);
  return mults;
}

std::uint64_t apply_block_panel(const tensor::SymTensor3& a,
                                const partition::BlockCoord& c,
                                std::size_t b, std::size_t lanes,
                                const PanelBuffers& buf) {
  return apply_block_panel_isa(a, c, b, lanes, buf, simt::preferred_isa());
}

}  // namespace sttsv::core
