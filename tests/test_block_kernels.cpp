// Block kernel tests: applying the kernel over every block of a tiled
// tensor must reproduce Algorithm 4 exactly, per block type, including
// padded edges.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/block_kernels.hpp"
#include "core/costs.hpp"
#include "core/panel_kernels.hpp"
#include "core/sttsv_seq.hpp"
#include "partition/blocks.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv::core {
namespace {

/// Runs apply_block over all lower-tetra blocks of an m×m×m tiling with
/// edge b and collects the assembled y (padded length m*b, truncated to n).
std::vector<double> blocked_sttsv(const tensor::SymTensor3& a,
                                  const std::vector<double>& x,
                                  std::size_t m, std::size_t b,
                                  std::uint64_t* mults_out = nullptr) {
  const std::size_t n = a.dim();
  std::vector<double> x_pad(m * b, 0.0);
  std::copy(x.begin(), x.end(), x_pad.begin());
  std::vector<double> y_pad(m * b, 0.0);
  std::uint64_t mults = 0;
  for (const auto& c : partition::all_lower_blocks(m)) {
    BlockBuffers buf;
    buf.x[0] = x_pad.data() + c.i * b;
    buf.x[1] = x_pad.data() + c.j * b;
    buf.x[2] = x_pad.data() + c.k * b;
    buf.y[0] = y_pad.data() + c.i * b;
    buf.y[1] = y_pad.data() + c.j * b;
    buf.y[2] = y_pad.data() + c.k * b;
    mults += apply_block(a, c, b, buf);
  }
  if (mults_out != nullptr) *mults_out = mults;
  return {y_pad.begin(), y_pad.begin() + static_cast<long>(n)};
}

struct TilingCase {
  std::size_t n;
  std::size_t m;
  std::size_t b;
};

class BlockKernelTiling : public ::testing::TestWithParam<TilingCase> {};

TEST_P(BlockKernelTiling, MatchesAlgorithm4) {
  const auto [n, m, b] = GetParam();
  ASSERT_GE(m * b, n);
  Rng rng(n * 31 + m);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  const auto y_ref = sttsv_packed(a, x);
  // Independent golden: the branchy element-wise Algorithm 4 walk.
  const auto y_sym = sttsv_symmetric(a, x);
  std::uint64_t mults = 0;
  const auto y = blocked_sttsv(a, x, m, b, &mults);
  ASSERT_EQ(y.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], y_ref[i], 1e-11) << "i=" << i;
    EXPECT_NEAR(y[i], y_sym[i], 1e-11) << "i=" << i;
  }
  EXPECT_EQ(mults, symmetric_ternary_mults(n));
}

INSTANTIATE_TEST_SUITE_P(
    Tilings, BlockKernelTiling,
    ::testing::Values(TilingCase{12, 4, 3},   // exact tiling
                      TilingCase{12, 3, 4},   // exact, larger blocks
                      TilingCase{10, 4, 3},   // padded (12 > 10)
                      TilingCase{7, 7, 1},    // unit blocks
                      TilingCase{5, 1, 5},    // single central block
                      TilingCase{11, 2, 6},   // two blocks, padding
                      TilingCase{9, 5, 2},    // padding in last block
                      TilingCase{26, 4, 7},   // interior blocks + padding
                      TilingCase{30, 4, 8},   // padded, larger edge
                      TilingCase{21, 6, 4}));  // many interiors, padded

TEST(BlockKernel, PerTypeMultCounts) {
  // Kernel mult counts must match ternary_mults_in_block per type
  // (no padding so formulas are exact).
  const std::size_t m = 3;
  const std::size_t b = 4;
  const std::size_t n = m * b;
  Rng rng(5);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<double> x_pad(n, 1.0);
  std::vector<double> y_pad(n, 0.0);
  for (const auto& c : partition::all_lower_blocks(m)) {
    BlockBuffers buf;
    buf.x[0] = x_pad.data() + c.i * b;
    buf.x[1] = x_pad.data() + c.j * b;
    buf.x[2] = x_pad.data() + c.k * b;
    buf.y[0] = y_pad.data() + c.i * b;
    buf.y[1] = y_pad.data() + c.j * b;
    buf.y[2] = y_pad.data() + c.k * b;
    const auto mults = apply_block(a, c, b, buf);
    EXPECT_EQ(mults,
              partition::ternary_mults_in_block(partition::classify(c), b))
        << "block (" << c.i << "," << c.j << "," << c.k << ")";
  }
}

TEST(BlockKernel, SpecializedMatchesGenericPerBlock) {
  // Every block class of the dispatching kernel must agree with the
  // element-wise generic kernel block-by-block: identical mult counts and
  // matching contributions to every slot, including aliased diagonal
  // buffers and padded edge blocks.
  struct Sweep {
    std::size_t n;
    std::size_t m;
    std::size_t b;
  };
  const Sweep sweeps[] = {{20, 4, 5},    // exact: all four classes
                          {18, 4, 5},    // padded edge blocks
                          {13, 5, 3},    // padding, small edge
                          {24, 6, 4}};   // more interiors
  for (const auto& s : sweeps) {
    Rng rng(s.n * 101 + s.m);
    const auto a = tensor::random_symmetric(s.n, rng);
    std::vector<double> x_pad(s.m * s.b, 0.0);
    {
      const auto x = rng.uniform_vector(s.n);
      std::copy(x.begin(), x.end(), x_pad.begin());
    }
    bool saw_interior = false, saw_face_ij = false, saw_face_jk = false,
         saw_central = false;
    for (const auto& c : partition::all_lower_blocks(s.m)) {
      std::vector<double> y_spec(s.m * s.b, 0.0);
      std::vector<double> y_gen(s.m * s.b, 0.0);
      BlockBuffers spec, gen;
      for (int slot = 0; slot < 3; ++slot) {
        const std::size_t block =
            slot == 0 ? c.i : (slot == 1 ? c.j : c.k);
        spec.x[slot] = gen.x[slot] = x_pad.data() + block * s.b;
        spec.y[slot] = y_spec.data() + block * s.b;
        gen.y[slot] = y_gen.data() + block * s.b;
      }
      const auto mults_spec = apply_block(a, c, s.b, spec);
      const auto mults_gen = apply_block_generic(a, c, s.b, gen);
      EXPECT_EQ(mults_spec, mults_gen)
          << "block (" << c.i << "," << c.j << "," << c.k << ")";
      for (std::size_t i = 0; i < y_spec.size(); ++i) {
        EXPECT_NEAR(y_spec[i], y_gen[i], 1e-12)
            << "block (" << c.i << "," << c.j << "," << c.k << ") i=" << i;
      }
      if (c.i > c.j && c.j > c.k) saw_interior = true;
      if (c.i == c.j && c.j > c.k) saw_face_ij = true;
      if (c.i > c.j && c.j == c.k) saw_face_jk = true;
      if (c.i == c.j && c.j == c.k) saw_central = true;
    }
    EXPECT_TRUE(saw_interior && saw_face_ij && saw_face_jk && saw_central)
        << "sweep m=" << s.m << " must exercise all four block classes";
  }
}

TEST(BlockKernel, AliasedDiagonalBuffersSingleBlock) {
  // Diagonal blocks receive aliased slot pointers (same underlying block
  // buffer for the equal coordinates). The specialized face kernels must
  // produce the same result as the generic kernel under that aliasing for
  // a single isolated block of each diagonal class.
  const std::size_t b = 6;
  Rng rng(77);
  const auto a = tensor::random_symmetric(3 * b, rng);
  const auto x = rng.uniform_vector(3 * b);

  const partition::BlockCoord diag_cases[] = {
      {1, 1, 0},   // face_ij: x/y slots 0 and 1 alias
      {2, 0, 0},   // face_jk: x/y slots 1 and 2 alias
      {1, 1, 1}};  // central: all three slots alias
  for (const auto& c : diag_cases) {
    std::vector<double> y_spec(3 * b, 0.0);
    std::vector<double> y_gen(3 * b, 0.0);
    BlockBuffers spec, gen;
    const std::size_t blocks[3] = {c.i, c.j, c.k};
    for (int slot = 0; slot < 3; ++slot) {
      spec.x[slot] = gen.x[slot] = x.data() + blocks[slot] * b;
      spec.y[slot] = y_spec.data() + blocks[slot] * b;
      gen.y[slot] = y_gen.data() + blocks[slot] * b;
    }
    const auto mults_spec = apply_block(a, c, b, spec);
    const auto mults_gen = apply_block_generic(a, c, b, gen);
    EXPECT_EQ(mults_spec, mults_gen);
    EXPECT_EQ(mults_spec,
              partition::ternary_mults_in_block(partition::classify(c), b));
    for (std::size_t i = 0; i < y_spec.size(); ++i) {
      EXPECT_NEAR(y_spec[i], y_gen[i], 1e-12)
          << "block (" << c.i << "," << c.j << "," << c.k << ") i=" << i;
    }
  }
}

TEST(BlockKernel, RejectsNonAliasedDiagonalSlots) {
  // The class kernels read and write an equal coordinate through one
  // slot only, so a diagonal block whose equal-coordinate slots hold two
  // buffers would silently skip one. Both entry points refuse that
  // binding, for a separate x or a separate y; the element-wise generic
  // kernel reads and writes every slot and keeps accepting it.
  const std::size_t b = 6;
  const std::size_t lanes = 2;
  Rng rng(78);
  const auto a = tensor::random_symmetric(3 * b, rng);
  const auto x = rng.uniform_vector(3 * b * lanes);
  const auto x_copy = x;
  std::vector<double> y(3 * b * lanes, 0.0);
  std::vector<double> y_apart(3 * b * lanes, 0.0);

  const partition::BlockCoord diag_cases[] = {
      {1, 1, 0},   // face_ij: slots 0 and 1 must alias
      {2, 0, 0},   // face_jk: slots 1 and 2 must alias
      {1, 1, 1}};  // central: all three slots must alias
  for (const auto& c : diag_cases) {
    const std::size_t blocks[3] = {c.i, c.j, c.k};
    const std::size_t apart = c.i == c.j ? 1 : 2;  // an equal-coordinate slot
    for (const bool x_apart : {true, false}) {
      SCOPED_TRACE(testing::Message() << "block (" << c.i << "," << c.j << ","
                                      << c.k << "), separate "
                                      << (x_apart ? "x" : "y"));
      BlockBuffers core;
      PanelBuffers panel;
      for (std::size_t s = 0; s < 3; ++s) {
        const auto& xs = s == apart && x_apart ? x_copy : x;
        auto& ys = s == apart && !x_apart ? y_apart : y;
        core.x[s] = xs.data() + blocks[s] * b;
        core.y[s] = ys.data() + blocks[s] * b;
        panel.x[s] = xs.data() + blocks[s] * b * lanes;
        panel.y[s] = ys.data() + blocks[s] * b * lanes;
      }
      EXPECT_THROW(apply_block(a, c, b, core), PreconditionError);
      EXPECT_THROW(apply_block_panel(a, c, b, lanes, panel),
                   PreconditionError);
      EXPECT_EQ(apply_block_generic(a, c, b, core),
                partition::ternary_mults_in_block(partition::classify(c), b));
    }
  }
  // The generic kernel wrote the separate y slot it was given.
  EXPECT_TRUE(std::any_of(y_apart.begin(), y_apart.end(),
                          [](double v) { return v != 0.0; }));
}

TEST(BlockKernel, RejectsBadLaneCounts) {
  tensor::SymTensor3 a(4);
  std::vector<double> x(8, 0.0), y(8, 0.0);
  BlockBuffers buf;
  buf.x[0] = buf.x[1] = buf.x[2] = x.data();
  buf.y[0] = buf.y[1] = buf.y[2] = y.data();
  buf.lanes = 0;
  EXPECT_THROW(apply_block(a, {0, 0, 0}, 2, buf), PreconditionError);
  buf.lanes = kMaxBlockLanes + 1;
  EXPECT_THROW(apply_block(a, {0, 0, 0}, 2, buf), PreconditionError);
  buf.lanes = 2;
  buf.lane_stride = 1;  // lanes of one slot would overlap
  EXPECT_THROW(apply_block(a, {0, 0, 0}, 2, buf), PreconditionError);
  EXPECT_THROW(apply_block_generic(a, {0, 0, 0}, 2, buf), PreconditionError);
  buf.lane_stride = 2;
  EXPECT_EQ(apply_block(a, {0, 0, 0}, 2, buf),
            2 * partition::ternary_mults_in_block(
                    partition::classify({0, 0, 0}), 2));
}

TEST(BlockKernel, FullyPaddedBlockIsFree) {
  // Tensor dim 4 tiled with m=2, b=4: blocks touching indices >= 4 are
  // partially or fully padded; block (1,1,1) covers 4..7 entirely beyond n.
  tensor::SymTensor3 a(4);
  std::vector<double> x(8, 1.0);
  std::vector<double> y(8, 0.0);
  BlockBuffers buf;
  buf.x[0] = buf.x[1] = buf.x[2] = x.data() + 4;
  buf.y[0] = buf.y[1] = buf.y[2] = y.data() + 4;
  EXPECT_EQ(apply_block(a, {1, 1, 1}, 4, buf), 0u);
  for (const double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(BlockKernel, RejectsUnsortedOrUnbound) {
  tensor::SymTensor3 a(4);
  std::vector<double> x(2, 0.0), y(2, 0.0);
  BlockBuffers buf;
  buf.x[0] = buf.x[1] = buf.x[2] = x.data();
  buf.y[0] = buf.y[1] = buf.y[2] = y.data();
  EXPECT_THROW(apply_block(a, {0, 1, 0}, 2, buf), PreconditionError);
  BlockBuffers unbound;
  EXPECT_THROW(apply_block(a, {1, 0, 0}, 2, unbound), PreconditionError);
}

}  // namespace
}  // namespace sttsv::core
