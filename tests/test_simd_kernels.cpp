// SIMD kernel contract tests (DESIGN.md §13): the AVX2 and AVX-512
// instantiations, the fused register-block rows of the core and panel
// kernels, and the panel kernels' chunk tiers must produce output bitwise
// identical to the portable scalar instantiation and to an unfused
// (RJ = 1) reference — across block classes, padded tails, and aliased
// diagonal buffers. Requesting an ISA the host lacks falls back, so every
// ISA loop runs on any host and must still match bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/block_kernels.hpp"
#include "core/panel_kernels.hpp"
#include "core/panel_kernels_impl.hpp"
#include "partition/blocks.hpp"
#include "simt/simd.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv {
namespace {

const simt::KernelIsa kAllIsas[] = {simt::KernelIsa::kScalar,
                                    simt::KernelIsa::kAvx2,
                                    simt::KernelIsa::kAvx512};

// ---------------------------------------------------------------------------
// CPU feature probing.
// ---------------------------------------------------------------------------

TEST(CpuFeatures, ProbeIsCachedAndConsistent) {
  const simt::CpuFeatures& f1 = simt::cpu_features();
  const simt::CpuFeatures& f2 = simt::cpu_features();
  EXPECT_EQ(&f1, &f2);  // one cached probe per process
  // avx2 without sse2 (or fma without avx) would mean a broken probe.
  if (f1.avx2) {
    EXPECT_TRUE(f1.sse2);
  }
  if (f1.fma) {
    EXPECT_TRUE(f1.avx);
  }
  const std::string s = simt::cpu_features_string();
  EXPECT_FALSE(s.empty());
  if (f1.avx2) {
    EXPECT_NE(s.find("avx2"), std::string::npos);
  }
}

TEST(CpuFeatures, PreferredIsaRespectsRuntimeSwitch) {
  const bool was_enabled = simt::simd_enabled();  // may start off via env
  simt::set_simd_enabled(false);
  EXPECT_EQ(simt::preferred_isa(), simt::KernelIsa::kScalar);
  simt::set_simd_enabled(true);
  const simt::CpuFeatures& f = simt::cpu_features();
  // Every SIMD tier fuses its multiply-adds, so it needs FMA too.
  simt::KernelIsa expect = simt::simd_compiled() && f.avx2 && f.fma
                               ? simt::KernelIsa::kAvx2
                               : simt::KernelIsa::kScalar;
#ifdef STTSV_HAVE_AVX512_KERNELS
  if (expect == simt::KernelIsa::kAvx2 && f.avx512f) {
    expect = simt::KernelIsa::kAvx512;
  }
#endif
  EXPECT_EQ(simt::preferred_isa(), expect);
  if (simt::preferred_isa() != simt::KernelIsa::kScalar) {
    EXPECT_TRUE(f.fma);
  }
  simt::set_simd_enabled(was_enabled);
}

// Both kernel dispatchers resolve a requested ISA through dispatch_isa: an
// explicit kAvx2 or kAvx512 on a host without FMA runs scalar, and kAvx512
// without AVX-512F runs kAvx2. Read from the gate with hand-made feature
// sets, so no test host has to lack them.
TEST(CpuFeatures, SimdIsasRequireFma) {
  const simt::CpuFeatures full{true, true, true, true, true};
  simt::CpuFeatures no_fma = full;
  no_fma.fma = false;
  simt::CpuFeatures no_avx512 = full;
  no_avx512.avx512f = false;
  const simt::KernelIsa avx2 =
      simt::simd_compiled() ? simt::KernelIsa::kAvx2 : simt::KernelIsa::kScalar;
  simt::KernelIsa avx512 = avx2;
#ifdef STTSV_HAVE_AVX512_KERNELS
  avx512 = simt::KernelIsa::kAvx512;
#endif
  for (const simt::KernelIsa isa : kAllIsas) {
    SCOPED_TRACE(simt::isa_name(isa));
    EXPECT_EQ(simt::dispatch_isa(isa, no_fma), simt::KernelIsa::kScalar);
  }
  EXPECT_EQ(simt::dispatch_isa(simt::KernelIsa::kScalar, full),
            simt::KernelIsa::kScalar);
  EXPECT_EQ(simt::dispatch_isa(simt::KernelIsa::kAvx2, full), avx2);
  EXPECT_EQ(simt::dispatch_isa(simt::KernelIsa::kAvx512, full), avx512);
  EXPECT_EQ(simt::dispatch_isa(simt::KernelIsa::kAvx512, no_avx512), avx2);
}

TEST(CpuFeatures, IsaNames) {
  EXPECT_STREQ(simt::isa_name(simt::KernelIsa::kScalar), "scalar");
  EXPECT_STREQ(simt::isa_name(simt::KernelIsa::kAvx2), "avx2");
  EXPECT_STREQ(simt::isa_name(simt::KernelIsa::kAvx512), "avx512");
}

// ---------------------------------------------------------------------------
// Golden bitwise tests: SIMD vs scalar, core vs panel kernels vs the unfused
// reference, all classes.
// ---------------------------------------------------------------------------

/// Views of block c's row blocks in padded x/y. Buffer slots alias
/// exactly as the tiling drivers alias them for diagonal blocks.
core::BlockBuffers bind_block(const partition::BlockCoord& c, std::size_t b,
                              const std::vector<double>& x_pad,
                              std::vector<double>& y_pad) {
  core::BlockBuffers buf;
  buf.x[0] = x_pad.data() + c.i * b;
  buf.x[1] = x_pad.data() + c.j * b;
  buf.x[2] = x_pad.data() + c.k * b;
  buf.y[0] = y_pad.data() + c.i * b;
  buf.y[1] = y_pad.data() + c.j * b;
  buf.y[2] = y_pad.data() + c.k * b;
  return buf;
}

/// Applies one block with the given ISA's core kernels into a fresh
/// padded y and returns (y, mults). A non-empty `y_pad` replaces the
/// fresh zero y as the starting value.
std::pair<std::vector<double>, std::uint64_t> run_block(
    const tensor::SymTensor3& a, const partition::BlockCoord& c,
    std::size_t m, std::size_t b, const std::vector<double>& x_pad,
    simt::KernelIsa isa, std::vector<double> y_pad = {}) {
  if (y_pad.empty()) y_pad.assign(m * b, 0.0);
  const std::uint64_t mults =
      core::apply_block_isa(a, c, b, bind_block(c, b, x_pad, y_pad), isa);
  return {std::move(y_pad), mults};
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Bitwise, not EXPECT_DOUBLE_EQ: the contract is exact replay.
    std::uint64_t gb = 0, wb = 0;
    std::memcpy(&gb, &got[i], 8);
    std::memcpy(&wb, &want[i], 8);
    ASSERT_EQ(gb, wb) << what << " differs at element " << i << " (got "
                      << got[i] << ", want " << want[i] << ")";
  }
}

/// Panel views of block c's row blocks in lane-interleaved x/y panels
/// (element l of lane v at l·lanes + v), aliased like bind_block.
core::PanelBuffers bind_panel(const partition::BlockCoord& c, std::size_t b,
                              std::size_t lanes,
                              const std::vector<double>& x_pan,
                              std::vector<double>& y_pan) {
  core::PanelBuffers pbuf;
  pbuf.x[0] = x_pan.data() + c.i * b * lanes;
  pbuf.x[1] = x_pan.data() + c.j * b * lanes;
  pbuf.x[2] = x_pan.data() + c.k * b * lanes;
  pbuf.y[0] = y_pan.data() + c.i * b * lanes;
  pbuf.y[1] = y_pan.data() + c.j * b * lanes;
  pbuf.y[2] = y_pan.data() + c.k * b * lanes;
  return pbuf;
}

/// Lane v of a `lanes`-lane panel as a contiguous vector.
std::vector<double> panel_lane(const std::vector<double>& pan,
                               std::size_t lanes, std::size_t v) {
  std::vector<double> out(pan.size() / lanes);
  for (std::size_t l = 0; l < out.size(); ++l) out[l] = pan[l * lanes + v];
  return out;
}

/// Runs block c on lane-interleaved panels through the panel kernels of
/// `panel_isa`, then checks every lane bitwise against the core kernels
/// of `core_isa` run on that lane alone from the same starting y, and the
/// multiplication counts.
void expect_panel_lanes_match_core(const tensor::SymTensor3& a,
                                   const partition::BlockCoord& c,
                                   std::size_t m, std::size_t b,
                                   std::size_t lanes,
                                   const std::vector<double>& x_pan,
                                   const std::vector<double>& y_start,
                                   simt::KernelIsa panel_isa,
                                   simt::KernelIsa core_isa) {
  std::vector<double> y_pan = y_start;
  const std::uint64_t pm = core::apply_block_panel_isa(
      a, c, b, lanes, bind_panel(c, b, lanes, x_pan, y_pan), panel_isa);

  std::uint64_t sm = 0;
  for (std::size_t v = 0; v < lanes; ++v) {
    const auto [y_ref, mults] =
        run_block(a, c, m, b, panel_lane(x_pan, lanes, v), core_isa,
                  panel_lane(y_start, lanes, v));
    sm += mults;
    expect_bitwise_equal(panel_lane(y_pan, lanes, v), y_ref,
                         "panel lane vs core");
  }
  EXPECT_EQ(pm, sm);
}

/// The unfused reference (DESIGN.md §13.3): the panel kernels' own class
/// bodies instantiated with every strict row alone (RJ = 1), scalar, one
/// lane chunk. The lane runs as lane 0 of a panel whose other lanes are
/// zero; returns that lane's y.
std::vector<double> unfused_lane(const tensor::SymTensor3& a,
                                 const partition::BlockCoord& c,
                                 std::size_t b,
                                 const std::vector<double>& x_pad,
                                 const std::vector<double>& y_start) {
  const core::detail::PanelVTable& unfused =
      core::detail::unfused_panel_vtable();
  const std::size_t w = unfused.width;
  std::vector<double> x_pan(x_pad.size() * w, 0.0);
  std::vector<double> y_pan(x_pan.size(), 0.0);
  for (std::size_t l = 0; l < x_pad.size(); ++l) {
    x_pan[l * w] = x_pad[l];
    y_pan[l * w] = y_start[l];
  }
  unfused.run(a, c, b, w, bind_panel(c, b, w, x_pan, y_pan), 0, 1);
  return panel_lane(y_pan, w, 0);
}

/// One representative block per class: interior, face_ij, face_jk,
/// central (diagonal blocks get aliased slots via bind_block).
const partition::BlockCoord kClassBlocks[] = {
    {2, 1, 0},  // interior
    {1, 1, 0},  // face_ij
    {2, 0, 0},  // face_jk
    {1, 1, 1},  // central
};

class SimdGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimdGolden, Avx2MatchesScalarBitwise) {
  const std::size_t b = GetParam();
  const std::size_t m = 3;
  // Full tiling and a padded one (n not a multiple of b) so the masked
  // tail path of every class is exercised. b == 1 pads to n == 2.
  std::vector<std::size_t> dims = {m * b};
  if (m * b >= 2) dims.push_back(m * b - 1);
  if (b >= 3) dims.push_back(m * b - (b - 2));  // short last block
  for (const std::size_t n : dims) {
    Rng rng(7 * n + b);
    const auto a = tensor::random_symmetric(n, rng);
    std::vector<double> x_pad(m * b, 0.0);
    for (std::size_t i = 0; i < n; ++i) x_pad[i] = rng.next_in(-1.0, 1.0);

    for (const auto& c : kClassBlocks) {
      const auto [y_scalar, m_scalar] =
          run_block(a, c, m, b, x_pad, simt::KernelIsa::kScalar);
      // A SIMD ISA the host lacks falls back; kAvx512 runs the AVX2 core.
      for (const simt::KernelIsa isa :
           {simt::KernelIsa::kAvx2, simt::KernelIsa::kAvx512}) {
        const auto [y_simd, m_simd] = run_block(a, c, m, b, x_pad, isa);
        EXPECT_EQ(m_scalar, m_simd);
        expect_bitwise_equal(y_simd, y_scalar, "simd vs scalar");
      }
    }
  }
}

// The core and panel kernels both fuse the strict rows of interior and
// face_ij blocks (RJ = 4), and the panel kernels also run face_jk and
// central rows in groups (a fused prefix, then per-row completions); the
// core kernels carry up to 3 lanes per walk of the block, and the panel
// kernels run 8- and 4-lane chunks in tiers. On every ISA, the one-lane
// core kernel and every lane of 2 and 3 (tail lanes alone), 4, 8, 12 and
// 16 (whole chunks: one tier or 8 + 4) and 6 and 7 (tail lanes after a
// whole chunk) must agree bit for bit with the unfused reference, which
// runs every row of every class alone — so fusion on both sides cannot
// hide a change of order, and the panel path can hand left-over lanes to
// the core.
TEST_P(SimdGolden, RegisterBlockShapeIsBitwiseInvariant) {
  const std::size_t b = GetParam();
  const std::size_t m = 3;
  const std::size_t n = m * b > 1 ? m * b - 1 : 1;  // padded tail too
  Rng rng(11 * b + 3);
  const auto a = tensor::random_symmetric(n, rng);
  for (const std::size_t lanes :
       {std::size_t{2}, std::size_t{3}, std::size_t{4}, std::size_t{6},
        std::size_t{7}, std::size_t{8}, std::size_t{12}, std::size_t{16}}) {
    SCOPED_TRACE(testing::Message() << "lanes=" << lanes);
    std::vector<double> x_pan(m * b * lanes, 0.0);
    for (std::size_t i = 0; i < n * lanes; ++i) {
      x_pan[i] = rng.next_in(-1.0, 1.0);
    }
    std::vector<double> y_start(m * b * lanes);
    for (double& e : y_start) e = rng.next_in(-1.0, 1.0);

    for (const auto& c : kClassBlocks) {
      std::vector<std::vector<double>> want(lanes);
      for (std::size_t v = 0; v < lanes; ++v) {
        want[v] = unfused_lane(a, c, b, panel_lane(x_pan, lanes, v),
                               panel_lane(y_start, lanes, v));
      }
      for (const simt::KernelIsa isa : kAllIsas) {
        SCOPED_TRACE(simt::isa_name(isa));
        std::vector<double> y_pan = y_start;
        const std::uint64_t pm = core::apply_block_panel_isa(
            a, c, b, lanes, bind_panel(c, b, lanes, x_pan, y_pan), isa);
        std::uint64_t sm = 0;
        for (std::size_t v = 0; v < lanes; ++v) {
          expect_bitwise_equal(panel_lane(y_pan, lanes, v), want[v],
                               "panel lane vs unfused reference");
          const auto [y_core, mults] =
              run_block(a, c, m, b, panel_lane(x_pan, lanes, v), isa,
                        panel_lane(y_start, lanes, v));
          sm += mults;
          expect_bitwise_equal(y_core, want[v],
                               "core lane vs unfused reference");
        }
        EXPECT_EQ(pm, sm);
      }
    }
  }
}

// b = 6 and 11 leave 2 and 3 rows after the last full group of a
// face_jk block.
INSTANTIATE_TEST_SUITE_P(BlockEdges, SimdGolden,
                         ::testing::Values(1, 3, 8, 13, 16, 17, 6, 11));

// One core call carries 1–3 lanes of any stride: each lane must equal a
// one-lane call on that lane alone, bit for bit, and the count must be
// lanes × the one-lane count. The stride is not a multiple of the vector
// width, so every lane but the first starts unaligned.
TEST(SimdGolden, CoreLanesMatchOneLaneBitwise) {
  const std::size_t m = 3, b = 13, n = m * b - 2;  // padded tail
  const std::size_t stride = m * b + 3;
  Rng rng(41);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<double> x_lanes(core::kMaxBlockLanes * stride, 0.0);
  std::vector<double> y_start(x_lanes.size());
  for (std::size_t v = 0; v < core::kMaxBlockLanes; ++v) {
    for (std::size_t l = 0; l < n; ++l) {
      x_lanes[v * stride + l] = rng.next_in(-1.0, 1.0);
    }
  }
  for (double& e : y_start) e = rng.next_in(-1.0, 1.0);
  for (std::size_t lanes = 1; lanes <= core::kMaxBlockLanes; ++lanes) {
    SCOPED_TRACE(testing::Message() << "lanes=" << lanes);
    for (const simt::KernelIsa isa : kAllIsas) {
      for (const auto& c : kClassBlocks) {
        std::vector<double> y_lanes = y_start;
        core::BlockBuffers buf = bind_block(c, b, x_lanes, y_lanes);
        buf.lanes = lanes;
        buf.lane_stride = stride;
        const std::uint64_t mults = core::apply_block_isa(a, c, b, buf, isa);
        for (std::size_t v = 0; v < lanes; ++v) {
          const auto lane = [&](const std::vector<double>& full) {
            const auto first =
                full.begin() + static_cast<std::ptrdiff_t>(v * stride);
            return std::vector<double>(
                first, first + static_cast<std::ptrdiff_t>(m * b));
          };
          const auto [y_ref, one] =
              run_block(a, c, m, b, lane(x_lanes), isa, lane(y_start));
          EXPECT_EQ(mults, lanes * one);
          expect_bitwise_equal(lane(y_lanes), y_ref, "core lane vs one lane");
        }
      }
    }
  }
}

// The default dispatch must route every class through the same
// arithmetic as the explicit scalar request — the ISA is a speed knob,
// never a semantics knob (ROADMAP: default path stays bitwise
// reproducible).
TEST(SimdGolden, DefaultOptionsMatchScalarBitwise) {
  const std::size_t m = 3, b = 16, n = 46;
  Rng rng(99);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<double> x_pad(m * b, 0.0);
  for (std::size_t i = 0; i < n; ++i) x_pad[i] = rng.next_in(-1.0, 1.0);
  for (const auto& c : kClassBlocks) {
    const auto [y_scalar, m_scalar] =
        run_block(a, c, m, b, x_pad, simt::KernelIsa::kScalar);
    std::vector<double> y_def(m * b, 0.0);
    const std::uint64_t m_def =
        core::apply_block(a, c, b, bind_block(c, b, x_pad, y_def));
    EXPECT_EQ(m_scalar, m_def);
    expect_bitwise_equal(y_def, y_scalar, "default dispatch vs scalar");
  }
}

// Every kernel update is one fused multiply-add (DESIGN.md §13.1). The
// other golden tests compare paths that share the vector types' fmadd, so
// a change made to all of them at once — fmadd reverting to a multiply and
// an add, say — would pass them. This one pins literal bits instead: an
// interior block at b = 9 (two whole k-chunks and one leftover per row)
// with two nonzero rows, whose inputs make each kind of fused update
// (k-partials, y_k axpys over whole chunks, the leftover dot step, the
// leftover axpy, the y_i and the y_j row sums) change y when it alone is
// rounded twice. The expected bits come from exact rational arithmetic,
// not from this TU, which is not built with -ffp-contract=off. Every lane
// of every path, core and panel, on every ISA must reproduce them.
TEST(SimdGolden, OneRoundingPerUpdate) {
  const std::size_t m = 3, b = 9, n = m * b;
  const partition::BlockCoord c{2, 1, 0};
  const double row9[] = {-0.5, 0.35, 0.98, -0.07, 0.78,
                         0.13, -0.7, -0.51, -0.95};
  const double row10[] = {0.51, -0.93, 0.76, 0.43, -0.73,
                          -0.21, 0.62, 0.74, -0.94};
  tensor::SymTensor3 a(n);
  for (std::size_t k = 0; k < b; ++k) {
    a.at(18, 9, k) = row9[k];
    a.at(18, 10, k) = row10[k];
  }
  std::vector<double> x = {0.9, -0.14, 0.76, 0.83, -0.74, 0.49,
                           0.14, -0.78, 0.31, 0.97, 0.67};
  x.resize(n, 0.0);
  x[18] = -0.96;
  std::vector<double> y_start = {0.07, 0.68, 0.41, -0.55, 0.39, 0.54,
                                 0.53, -0.33, 0.85, -0.54, -0.88};
  y_start.resize(n, 0.0);
  y_start[18] = -0.94;
  std::vector<double> want = {
      0x1.616b54e2b063cp-2,  0x1.39799e518f3eep+0, -0x1.3247cb70ac3a8p+1,
      -0x1.f210be9424e5ap-1, -0x1.fa43fe5c91d0cp-4, 0x1.22d5171e29b6bp-1,
      0x1.093ea2d2fe3f2p+0,  -0x1.54152b0a6fc5ap-2, 0x1.ea0c282c6ef3dp+1,
      0x1.34acaff6d3315p-4,  -0x1.9270b06c43f60p+1};
  want.resize(n, 0.0);
  want[18] = 0x1.2cc70867ad8c0p-6;

  for (const simt::KernelIsa isa : kAllIsas) {
    SCOPED_TRACE(simt::isa_name(isa));
    expect_bitwise_equal(run_block(a, c, m, b, x, isa, y_start).first, want,
                         "core kernel vs literal bits");
    for (const std::size_t lanes :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
          std::size_t{8}}) {
      SCOPED_TRACE(testing::Message() << "lanes=" << lanes);
      std::vector<double> x_pan(n * lanes);
      std::vector<double> y_pan(n * lanes);
      for (std::size_t l = 0; l < n; ++l) {
        for (std::size_t v = 0; v < lanes; ++v) {
          x_pan[l * lanes + v] = x[l];
          y_pan[l * lanes + v] = y_start[l];
        }
      }
      core::apply_block_panel_isa(a, c, b, lanes,
                                  bind_panel(c, b, lanes, x_pan, y_pan), isa);
      for (std::size_t v = 0; v < lanes; ++v) {
        expect_bitwise_equal(panel_lane(y_pan, lanes, v), want,
                             "panel lane vs literal bits");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Panel kernels: lane-interleaved panels vs the single-vector kernels,
// every instantiation.
// ---------------------------------------------------------------------------

TEST(PanelSimd, MatchesCoreBitwisePerLaneBothIsas) {
  const std::size_t m = 3, b = 13, n = m * b - 2;  // padded tail
  Rng rng(31);
  const auto a = tensor::random_symmetric(n, rng);
  // Whole chunks of one tier share one walk of the block (up to 4 chunks
  // of 4 or 3 chunks of 8 here), then 4-lane chunks after 8-lane ones
  // (12 = 8 + 4, 13 = 8 + 4 + 1, 15 = 8 + 4 + 3); lanes past the last
  // whole chunk run on the core kernels. Every lane must match the scalar
  // core kernel either way.
  for (const std::size_t lanes :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{6}, std::size_t{7}, std::size_t{8},
        std::size_t{11}, std::size_t{12}, std::size_t{13}, std::size_t{15},
        std::size_t{16}, std::size_t{19}, std::size_t{24}}) {
    SCOPED_TRACE(testing::Message() << "lanes=" << lanes);
    std::vector<double> x_pan(m * b * lanes, 0.0);
    for (std::size_t l = 0; l < n; ++l) {
      for (std::size_t v = 0; v < lanes; ++v) {
        x_pan[l * lanes + v] = rng.next_in(-1.0, 1.0);
      }
    }
    // Nonzero starting y, so a y slice a lane never reads shows up.
    std::vector<double> y_start(m * b * lanes);
    for (double& e : y_start) e = rng.next_in(-1.0, 1.0);
    for (const auto& c : kClassBlocks) {
      for (const simt::KernelIsa isa : kAllIsas) {
        expect_panel_lanes_match_core(a, c, m, b, lanes, x_pan, y_start, isa,
                                      simt::KernelIsa::kScalar);
      }
    }
  }
}

}  // namespace
}  // namespace sttsv
