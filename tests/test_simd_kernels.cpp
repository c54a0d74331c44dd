// SIMD kernel contract tests (DESIGN.md §13): the AVX2 instantiation,
// every register-block shape, and the panel kernels must produce output
// bitwise identical to the portable scalar instantiation — across block
// classes, padded tails, and aliased diagonal buffers. The opt-in
// compressed bilinear math is the one documented exception: it
// reassociates, so it is checked against the seed kernel within rounding
// bounds plus an exact multiplication-count formula.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/block_kernels.hpp"
#include "core/kernel_autotune.hpp"
#include "core/panel_kernels.hpp"
#include "partition/blocks.hpp"
#include "simt/simd.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv {
namespace {

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
  const simt::KernelIsa expect = simt::simd_compiled() && f.avx2 && f.fma
                                     ? simt::KernelIsa::kAvx2
                                     : simt::KernelIsa::kScalar;
  EXPECT_EQ(simt::preferred_isa(), expect);
  simt::set_simd_enabled(was_enabled);
}

TEST(CpuFeatures, IsaNames) {
  EXPECT_STREQ(simt::isa_name(simt::KernelIsa::kScalar), "scalar");
  EXPECT_STREQ(simt::isa_name(simt::KernelIsa::kAvx2), "avx2");
}

// ---------------------------------------------------------------------------
// Golden bitwise tests: AVX2 vs scalar, all classes, all RJ shapes.
// ---------------------------------------------------------------------------

/// Applies one block under the given options into a fresh padded y and
/// returns (y, mults). Buffer slots alias exactly as the tiling drivers
/// alias them for diagonal blocks. A non-empty `y_pad` replaces the
/// fresh zero y as the starting value.
std::pair<std::vector<double>, std::uint64_t> run_block(
    const tensor::SymTensor3& a, const partition::BlockCoord& c,
    std::size_t m, std::size_t b, const std::vector<double>& x_pad,
    const core::KernelOptions& opts, std::vector<double> y_pad = {}) {
  if (y_pad.empty()) y_pad.assign(m * b, 0.0);
  core::BlockBuffers buf;
  buf.x[0] = x_pad.data() + c.i * b;
  buf.x[1] = x_pad.data() + c.j * b;
  buf.x[2] = x_pad.data() + c.k * b;
  buf.y[0] = y_pad.data() + c.i * b;
  buf.y[1] = y_pad.data() + c.j * b;
  buf.y[2] = y_pad.data() + c.k * b;
  const std::uint64_t mults = core::apply_block_ex(a, c, b, buf, opts);
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

/// One representative block per class: interior, face_ij, face_jk,
/// central (diagonal blocks get aliased slots via run_block).
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
      core::KernelOptions scalar_opts;
      scalar_opts.isa = simt::KernelIsa::kScalar;
      core::KernelOptions simd_opts = scalar_opts;
      simd_opts.isa = simt::KernelIsa::kAvx2;  // falls back if unsupported
      const auto [y_scalar, m_scalar] = run_block(a, c, m, b, x_pad,
                                                  scalar_opts);
      const auto [y_simd, m_simd] = run_block(a, c, m, b, x_pad, simd_opts);
      EXPECT_EQ(m_scalar, m_simd);
      expect_bitwise_equal(y_simd, y_scalar, "avx2 vs scalar");
    }
  }
}

TEST_P(SimdGolden, RegisterBlockShapeIsBitwiseInvariant) {
  const std::size_t b = GetParam();
  const std::size_t m = 3;
  const std::size_t n = m * b > 1 ? m * b - 1 : 1;  // padded tail too
  Rng rng(11 * b + 3);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<double> x_pad(m * b, 0.0);
  for (std::size_t i = 0; i < n; ++i) x_pad[i] = rng.next_in(-1.0, 1.0);

  for (const simt::KernelIsa isa :
       {simt::KernelIsa::kScalar, simt::KernelIsa::kAvx2}) {
    for (const auto& c : kClassBlocks) {
      core::KernelOptions ref_opts;
      ref_opts.isa = isa;
      ref_opts.rj_interior = 1;
      ref_opts.rj_face_ij = 1;
      const auto [y_ref, m_ref] = run_block(a, c, m, b, x_pad, ref_opts);
      for (const std::uint8_t rj : {std::uint8_t{2}, std::uint8_t{4}}) {
        core::KernelOptions opts = ref_opts;
        opts.rj_interior = rj;
        opts.rj_face_ij = rj;
        const auto [y, mults] = run_block(a, c, m, b, x_pad, opts);
        EXPECT_EQ(mults, m_ref);
        expect_bitwise_equal(y, y_ref, "register-block shape");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BlockEdges, SimdGolden,
                         ::testing::Values(1, 3, 8, 13, 16, 17));

// The default options must route every class through the same arithmetic
// as the explicit scalar request — the ISA is a speed knob, never a
// semantics knob (ROADMAP: default path stays bitwise reproducible).
TEST(SimdGolden, DefaultOptionsMatchScalarBitwise) {
  const std::size_t m = 3, b = 16, n = 46;
  Rng rng(99);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<double> x_pad(m * b, 0.0);
  for (std::size_t i = 0; i < n; ++i) x_pad[i] = rng.next_in(-1.0, 1.0);
  for (const auto& c : kClassBlocks) {
    core::KernelOptions scalar_opts = core::kernel_options();
    scalar_opts.isa = simt::KernelIsa::kScalar;
    const auto [y_scalar, m_scalar] = run_block(a, c, m, b, x_pad,
                                                scalar_opts);
    const auto [y_def, m_def] =
        run_block(a, c, m, b, x_pad, core::kernel_options());
    EXPECT_EQ(m_scalar, m_def);
    expect_bitwise_equal(y_def, y_scalar, "default options vs scalar");
  }
}

// ---------------------------------------------------------------------------
// Compressed bilinear math (opt-in, reassociating).
// ---------------------------------------------------------------------------

TEST(CompressedMath, InteriorMatchesSeedWithinRoundingBounds) {
  for (const std::size_t b : {std::size_t{5}, std::size_t{16},
                              std::size_t{24}}) {
    const std::size_t m = 3, n = m * b - (b > 1 ? 1 : 0);
    Rng rng(17 * b);
    const auto a = tensor::random_symmetric(n, rng);
    std::vector<double> x_pad(m * b, 0.0);
    for (std::size_t i = 0; i < n; ++i) x_pad[i] = rng.next_in(-1.0, 1.0);
    const partition::BlockCoord c{2, 1, 0};

    const auto [y_seed, m_seed] =
        run_block(a, c, m, b, x_pad, core::KernelOptions{});
    for (const simt::KernelIsa isa :
         {simt::KernelIsa::kScalar, simt::KernelIsa::kAvx2}) {
      core::KernelOptions opts;
      opts.isa = isa;
      opts.math = core::KernelMath::kCompressed;
      const auto [y_comp, m_comp] = run_block(a, c, m, b, x_pad, opts);

      // DESIGN.md §13.4: |error| ≤ C·b·eps·Σ|terms|; with |x|,|a| ≤ 1 the
      // term sum per output element is ≤ 3b² and C is a small constant.
      const double bound = 64.0 * static_cast<double>(b * b) *
                           static_cast<double>(b) *
                           std::numeric_limits<double>::epsilon();
      ASSERT_EQ(y_comp.size(), y_seed.size());
      for (std::size_t i = 0; i < y_seed.size(); ++i) {
        EXPECT_NEAR(y_comp[i], y_seed[i], bound)
            << "compressed isa=" << simt::isa_name(isa) << " element " << i;
      }

      // Exact multiplication count of the compressed formulation:
      // bi·bj·bk squared-sum products plus 4 per face pair plus 3 per
      // axis correction (DESIGN.md §13.4).
      const std::size_t i_end = std::min(c.i * b + b, n);
      const std::size_t j_end = std::min(c.j * b + b, n);
      const std::size_t k_end = std::min(c.k * b + b, n);
      const std::uint64_t bi = i_end - c.i * b;
      const std::uint64_t bj = j_end - c.j * b;
      const std::uint64_t bk = k_end - c.k * b;
      EXPECT_EQ(m_comp, bi * bj * bk + 4 * (bi * bj + bi * bk + bj * bk) +
                            3 * (bi + bj + bk));
      EXPECT_EQ(m_seed, 3 * bi * bj * bk);
      // 2b³ saved vs ~12b² overhead: compressed wins from b ≈ 7 up.
      if (bi >= 8 && bj >= 8 && bk >= 8) {
        EXPECT_LT(m_comp, m_seed);
      }
    }
  }
}

TEST(CompressedMath, NonInteriorClassesFallBackToStandard) {
  const std::size_t m = 3, b = 8, n = m * b;
  Rng rng(23);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<double> x_pad(m * b, 0.0);
  for (std::size_t i = 0; i < n; ++i) x_pad[i] = rng.next_in(-1.0, 1.0);
  for (const auto& c : kClassBlocks) {
    if (c.i > c.j && c.j > c.k) continue;  // interior handled above
    core::KernelOptions comp;
    comp.math = core::KernelMath::kCompressed;
    const auto [y_comp, m_comp] = run_block(a, c, m, b, x_pad, comp);
    const auto [y_std, m_std] =
        run_block(a, c, m, b, x_pad, core::KernelOptions{});
    EXPECT_EQ(m_comp, m_std);
    expect_bitwise_equal(y_comp, y_std, "compressed fallback");
  }
}

// ---------------------------------------------------------------------------
// Panel kernels: lane-interleaved panels vs the single-vector kernels,
// both instantiations.
// ---------------------------------------------------------------------------

TEST(PanelSimd, MatchesCoreBitwisePerLaneBothIsas) {
  const std::size_t m = 3, b = 13, n = m * b - 2;  // padded tail
  Rng rng(31);
  const auto a = tensor::random_symmetric(n, rng);
  // Lanes past the last whole 4-chunk run on the core kernels. A
  // process-wide kCompressed must not reach them: under either installed
  // math every lane still matches the standard-math core kernel.
  const core::KernelOptions saved = core::kernel_options();
  core::KernelOptions compressed = saved;
  compressed.math = core::KernelMath::kCompressed;
  for (const core::KernelOptions& installed : {saved, compressed}) {
    core::set_kernel_options(installed);
    for (const std::size_t lanes :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
          std::size_t{5}, std::size_t{6}, std::size_t{7}, std::size_t{8},
          std::size_t{11}}) {
      SCOPED_TRACE(testing::Message() << "lanes=" << lanes << " math="
                                      << static_cast<int>(installed.math));
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
        for (const simt::KernelIsa isa :
             {simt::KernelIsa::kScalar, simt::KernelIsa::kAvx2}) {
          std::vector<double> y_pan = y_start;
          core::PanelBuffers pbuf;
          pbuf.x[0] = x_pan.data() + c.i * b * lanes;
          pbuf.x[1] = x_pan.data() + c.j * b * lanes;
          pbuf.x[2] = x_pan.data() + c.k * b * lanes;
          pbuf.y[0] = y_pan.data() + c.i * b * lanes;
          pbuf.y[1] = y_pan.data() + c.j * b * lanes;
          pbuf.y[2] = y_pan.data() + c.k * b * lanes;
          const std::uint64_t pm =
              core::apply_block_panel_isa(a, c, b, lanes, pbuf, isa);

          // Per lane: deinterleave x and the starting y, run the scalar
          // standard-math kernel, compare the lane's output bitwise.
          std::uint64_t sm = 0;
          for (std::size_t v = 0; v < lanes; ++v) {
            std::vector<double> x_pad(m * b), y_lane_start(m * b);
            std::vector<double> y_lane(m * b);
            for (std::size_t l = 0; l < m * b; ++l) {
              x_pad[l] = x_pan[l * lanes + v];
              y_lane_start[l] = y_start[l * lanes + v];
              y_lane[l] = y_pan[l * lanes + v];
            }
            core::KernelOptions opts;
            opts.isa = simt::KernelIsa::kScalar;
            opts.math = core::KernelMath::kStandard;
            const auto [y_ref, mults] =
                run_block(a, c, m, b, x_pad, opts, y_lane_start);
            sm += mults;
            expect_bitwise_equal(y_lane, y_ref, "panel lane vs core");
          }
          EXPECT_EQ(pm, sm);
        }
      }
    }
  }
  core::set_kernel_options(saved);  // leave process-wide state as found
}

// ---------------------------------------------------------------------------
// Autotuner.
// ---------------------------------------------------------------------------

TEST(KernelAutotune, CalibratesWithoutChangingOptions) {
  const core::KernelOptions before = core::kernel_options();
  const auto cal = core::calibrate_kernel_shapes(12, 0.001);
  EXPECT_EQ(cal.b, 12u);
  EXPECT_EQ(cal.interior.size(), 3u);
  EXPECT_EQ(cal.face_ij.size(), 3u);
  for (const auto& s : cal.interior) EXPECT_GT(s.seconds, 0.0);
  const auto is_shape = [](std::uint8_t rj) {
    return rj == 1 || rj == 2 || rj == 4;
  };
  EXPECT_TRUE(is_shape(cal.rj_interior));
  EXPECT_TRUE(is_shape(cal.rj_face_ij));
  const core::KernelOptions after = core::kernel_options();
  EXPECT_EQ(before.rj_interior, after.rj_interior);
  EXPECT_EQ(before.rj_face_ij, after.rj_face_ij);
}

TEST(KernelAutotune, AutotuneInstallsWinnersAndPreservesSemantics) {
  const core::KernelOptions before = core::kernel_options();
  const auto cal = core::autotune_kernels(12);
  const core::KernelOptions tuned = core::kernel_options();
  EXPECT_EQ(tuned.rj_interior, cal.rj_interior);
  EXPECT_EQ(tuned.rj_face_ij, cal.rj_face_ij);
  EXPECT_EQ(tuned.isa, before.isa);
  EXPECT_EQ(tuned.math, before.math);

  // Tuned options still replay the scalar reference bitwise.
  const std::size_t m = 3, b = 12, n = m * b - 1;
  Rng rng(41);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<double> x_pad(m * b, 0.0);
  for (std::size_t i = 0; i < n; ++i) x_pad[i] = rng.next_in(-1.0, 1.0);
  for (const auto& c : kClassBlocks) {
    core::KernelOptions ref;
    ref.isa = simt::KernelIsa::kScalar;
    ref.rj_interior = 1;
    ref.rj_face_ij = 1;
    const auto [y_ref, m_ref] = run_block(a, c, m, b, x_pad, ref);
    const auto [y_tuned, m_tuned] = run_block(a, c, m, b, x_pad, tuned);
    EXPECT_EQ(m_ref, m_tuned);
    expect_bitwise_equal(y_tuned, y_ref, "tuned options");
  }
  core::set_kernel_options(before);  // leave process-wide state as found
}

}  // namespace
}  // namespace sttsv
