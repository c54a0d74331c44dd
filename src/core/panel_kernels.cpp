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

/// The panel table of `isa` as simt::dispatch_isa resolves it on this
/// host: an ISA the build or the host cannot run falls back to the widest
/// one it can (bitwise identical anyway).
const PanelVTable& vtable_for(simt::KernelIsa isa) {
  switch (simt::dispatch_isa(isa, simt::cpu_features())) {
#ifdef STTSV_HAVE_AVX512_KERNELS
    case simt::KernelIsa::kAvx512:
      return detail::avx512_panel_vtable();
#endif
#ifdef STTSV_HAVE_AVX2_KERNELS
    case simt::KernelIsa::kAvx2:
      return detail::avx2_panel_vtable();
#endif
    default:
      return scalar_vtable();
  }
}

/// Runs the panel lanes from `first` on (fewer than simd::kLanes) in one
/// core kernel call. A one-lane panel is already the contiguous
/// single-vector layout and runs in place; otherwise each lane's first
/// len[s] elements of each distinct slot are gathered lane-major into
/// per-thread scratch (aliased diagonal slots stay aliased), and the y
/// slices are scattered back afterwards.
void run_tail_on_core(const tensor::SymTensor3& a,
                      const partition::BlockCoord& c, std::size_t b,
                      std::size_t lanes, const PanelBuffers& buf,
                      std::size_t first, const std::size_t (&len)[3],
                      simt::KernelIsa isa) {
  BlockBuffers core;
  if (lanes == 1) {
    std::copy_n(buf.x, 3, core.x);
    std::copy_n(buf.y, 3, core.y);
    apply_block_isa(a, c, b, core, isa);
    return;
  }
  const std::size_t tail = lanes - first;
  thread_local std::vector<double> scratch;
  const std::size_t slot_words = tail * b;
  if (scratch.size() < 6 * slot_words) scratch.resize(6 * slot_words);
  core.lanes = tail;
  core.lane_stride = b;
  const std::size_t block[3] = {c.i, c.j, c.k};
  const auto aliased = [&](std::size_t s) {
    return s > 0 && block[s] == block[s - 1];
  };
  for (std::size_t s = 0; s < 3; ++s) {
    if (aliased(s)) {
      core.x[s] = core.x[s - 1];
      core.y[s] = core.y[s - 1];
      continue;
    }
    double* xs = scratch.data() + s * slot_words;
    double* ys = scratch.data() + (3 + s) * slot_words;
    for (std::size_t v = 0; v < tail; ++v) {
      for (std::size_t l = 0; l < len[s]; ++l) {
        xs[v * b + l] = buf.x[s][l * lanes + first + v];
        ys[v * b + l] = buf.y[s][l * lanes + first + v];
      }
    }
    core.x[s] = xs;
    core.y[s] = ys;
  }
  apply_block_isa(a, c, b, core, isa);
  for (std::size_t s = 0; s < 3; ++s) {
    if (aliased(s)) continue;
    for (std::size_t v = 0; v < tail; ++v) {
      for (std::size_t l = 0; l < len[s]; ++l) {
        buf.y[s][l * lanes + first + v] = core.y[s][v * b + l];
      }
    }
  }
}

}  // namespace

namespace detail {

const PanelVTable& unfused_panel_vtable() {
  static const PanelVTable t = make_panel_vtable<simt::simd::VecScalar, 1>();
  return t;
}

void PanelVTable::run(const tensor::SymTensor3& a,
                      const partition::BlockCoord& c, std::size_t b,
                      std::size_t lanes, const PanelBuffers& buf,
                      std::size_t first, std::size_t chunks) const {
  const std::size_t n = a.dim();
  const std::size_t i0 = c.i * b;
  const std::size_t j0 = c.j * b;
  const std::size_t k0 = c.k * b;
  if (i0 >= n) return;  // fully padded block
  const std::size_t i_end = std::min(i0 + b, n);
  const std::size_t j_end = std::min(j0 + b, n);
  const std::size_t k_end = std::min(k0 + b, n);
  // Lane `first` of every slot; the panel stride stays `lanes`.
  const double* x[3];
  double* y[3];
  for (std::size_t s = 0; s < 3; ++s) {
    x[s] = buf.x[s] + first;
    y[s] = buf.y[s] + first;
  }
  if (c.i > c.j && c.j > c.k) {
    interior(a.data(), i0, i_end, j0, j_end, k0, k_end, x[0], x[1], x[2],
             y[0], y[1], y[2], lanes, chunks);
  } else if (c.i == c.j && c.j > c.k) {
    // Slots 0 and 1 view the same row block (aliased by contract).
    face_ij(a.data(), i0, i_end, k0, k_end, x[0], x[2], y[0], y[2], lanes,
            chunks);
  } else if (c.i > c.j && c.j == c.k) {
    // Slots 1 and 2 view the same row block (aliased by contract).
    face_jk(a.data(), i0, i_end, j0, j_end, x[0], x[1], y[0], y[1], lanes,
            chunks);
  } else {
    // Central diagonal block: all three slots alias one panel pair.
    central(a.data(), i0, i_end, x[0], y[0], lanes, chunks);
  }
}

}  // namespace detail

std::uint64_t apply_block_panel_isa(const tensor::SymTensor3& a,
                                    const partition::BlockCoord& c,
                                    std::size_t b, std::size_t lanes,
                                    const PanelBuffers& buf,
                                    simt::KernelIsa isa) {
  STTSV_REQUIRE(lanes >= 1, "panel needs at least one lane");
  detail::require_block_slots(c, buf.x, buf.y);
  const std::size_t n = a.dim();
  const std::size_t i0 = c.i * b;
  const std::size_t j0 = c.j * b;
  const std::size_t k0 = c.k * b;
  if (i0 >= n) return 0;  // fully padded block
  const std::size_t i_end = std::min(i0 + b, n);
  const std::size_t j_end = std::min(j0 + b, n);
  const std::size_t k_end = std::min(k0 + b, n);

  obs::Span span("kernel.panel", obs::Category::kKernel);

  // Chunk tiers, widest first: whole chunks of the ISA's own width, then
  // whole 4-lane chunks at that lane offset, each tier in one walk of the
  // block; the last 0–3 lanes run in one more walk, on the core kernels.
  // Lanes never mix arithmetically, so the split is invisible to the
  // bitwise contract.
  const PanelVTable* tiers[] = {
      &vtable_for(isa),
      &vtable_for(isa == simt::KernelIsa::kAvx512 ? simt::KernelIsa::kAvx2
                                                  : isa)};
  std::size_t first = 0;
  for (const PanelVTable* vt : tiers) {
    const std::size_t chunks = (lanes - first) / vt->width;
    if (chunks == 0) continue;
    vt->run(a, c, b, lanes, buf, first, chunks);
    first += chunks * vt->width;
  }
  if (first < lanes) {
    const std::size_t len[3] = {i_end - i0, j_end - j0, k_end - k0};
    run_tail_on_core(a, c, b, lanes, buf, first, len, isa);
  }
  const std::uint64_t mults =
      lanes * detail::block_lane_mults(c, i_end - i0, j_end - j0, k_end - k0);
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
