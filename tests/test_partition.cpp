// Tetrahedral block partition tests (paper Section 6): classification,
// TB₃ construction, full partition validity for both Steiner families,
// and the storage/compute bounds of Sections 6.1.3 and 7.1.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>

#include "core/costs.hpp"
#include "partition/blocks.hpp"
#include "partition/tetra_partition.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"

namespace sttsv::partition {
namespace {

TEST(Classify, AllThreeTypes) {
  EXPECT_EQ(classify({5, 3, 1}), BlockType::kOffDiagonal);
  EXPECT_EQ(classify({5, 5, 1}), BlockType::kNonCentralDiagonal);
  EXPECT_EQ(classify({5, 1, 1}), BlockType::kNonCentralDiagonal);
  EXPECT_EQ(classify({5, 5, 5}), BlockType::kCentralDiagonal);
  EXPECT_THROW(classify({1, 2, 3}), PreconditionError);
}

TEST(TetrahedralBlock, PaperExample) {
  // Paper Section 6: TB₃({1,4,6,8}) = {(6,4,1),(8,4,1),(8,6,1),(8,6,4)}.
  const auto tb = tetrahedral_block({1, 4, 6, 8});
  ASSERT_EQ(tb.size(), 4u);
  EXPECT_TRUE(std::find(tb.begin(), tb.end(), BlockCoord{6, 4, 1}) !=
              tb.end());
  EXPECT_TRUE(std::find(tb.begin(), tb.end(), BlockCoord{8, 4, 1}) !=
              tb.end());
  EXPECT_TRUE(std::find(tb.begin(), tb.end(), BlockCoord{8, 6, 1}) !=
              tb.end());
  EXPECT_TRUE(std::find(tb.begin(), tb.end(), BlockCoord{8, 6, 4}) !=
              tb.end());
}

TEST(BlockCounts, SumToLowerTetrahedron) {
  for (std::size_t m : {3u, 8u, 10u, 17u}) {
    EXPECT_EQ(num_off_diagonal_blocks(m) +
                  num_non_central_diagonal_blocks(m) +
                  num_central_diagonal_blocks(m),
              m * (m + 1) * (m + 2) / 6);
    EXPECT_EQ(all_lower_blocks(m).size(), m * (m + 1) * (m + 2) / 6);
  }
}

TEST(EntriesInBlock, SumOverTypesMatchesGlobalPacked) {
  // Tile an n = m*b tensor into blocks; entry counts must add up to
  // n(n+1)(n+2)/6.
  const std::size_t m = 5;
  const std::size_t b = 3;
  const std::size_t n = m * b;
  std::size_t total = 0;
  for (const auto& c : all_lower_blocks(m)) {
    total += entries_in_block(classify(c), b);
  }
  EXPECT_EQ(total, n * (n + 1) * (n + 2) / 6);
}

TEST(TernaryMultsInBlock, SumMatchesAlgorithm4Count) {
  // Section 3: Algorithm 4 performs n²(n+1)/2 ternary multiplications.
  const std::size_t m = 4;
  const std::size_t b = 5;
  const std::size_t n = m * b;
  std::uint64_t total = 0;
  for (const auto& c : all_lower_blocks(m)) {
    total += ternary_mults_in_block(classify(c), b);
  }
  EXPECT_EQ(total, core::symmetric_ternary_mults(n));
}

steiner::SteinerSystem make_spherical2() {
  return steiner::spherical_system(2);
}
steiner::SteinerSystem make_spherical3() {
  return steiner::spherical_system(3);
}
steiner::SteinerSystem make_spherical4() {
  return steiner::spherical_system(4);
}
steiner::SteinerSystem make_boolean3() {
  return steiner::boolean_quadruple_system(3);
}
steiner::SteinerSystem make_boolean4() {
  return steiner::boolean_quadruple_system(4);
}

struct FamilyCase {
  const char* name;
  steiner::SteinerSystem (*system)();
};

// Names each case in test listings (and so in ctest's test names); a bare
// function pointer would print as its load address, which changes per run.
void PrintTo(const FamilyCase& c, std::ostream* os) { *os << c.name; }

class PartitionFamilies : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(PartitionFamilies, FullValidation) {
  const TetraPartition part = TetraPartition::build(GetParam().system());
  part.validate();
}

TEST_P(PartitionFamilies, OwnedBlocksPartitionTheTetrahedron) {
  const TetraPartition part = TetraPartition::build(GetParam().system());
  const std::size_t m = part.num_row_blocks();
  std::map<BlockCoord, std::size_t> seen;
  for (std::size_t p = 0; p < part.num_processors(); ++p) {
    for (const auto& c : part.owned_blocks(p)) {
      EXPECT_EQ(seen.count(c), 0u) << "block owned twice";
      seen[c] = p;
    }
  }
  EXPECT_EQ(seen.size(), m * (m + 1) * (m + 2) / 6);
  // owner() agrees with the per-processor lists.
  for (const auto& [coord, p] : seen) {
    EXPECT_EQ(part.owner(coord), p);
  }
}

TEST_P(PartitionFamilies, DiagonalCompatibility) {
  // The paper's key property: N_p and D_p blocks need no vector data
  // beyond the row blocks R_p already requires.
  const TetraPartition part = TetraPartition::build(GetParam().system());
  for (std::size_t p = 0; p < part.num_processors(); ++p) {
    const auto& Rp = part.R(p);
    auto in_r = [&](std::size_t v) {
      return std::binary_search(Rp.begin(), Rp.end(), v);
    };
    for (const auto& c : part.N(p)) {
      EXPECT_TRUE(in_r(c.i) && in_r(c.k));
    }
    for (const auto& c : part.D(p)) {
      EXPECT_TRUE(in_r(c.i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, PartitionFamilies,
    ::testing::Values(FamilyCase{"spherical_q2", &make_spherical2},
                      FamilyCase{"spherical_q3", &make_spherical3},
                      FamilyCase{"spherical_q4", &make_spherical4},
                      FamilyCase{"boolean_k3", &make_boolean3},
                      FamilyCase{"boolean_k4", &make_boolean4}));

TEST(SphericalPartition, QuotasExact) {
  // Spherical family: |N_p| == q for every p, |D_p| <= 1 with exactly
  // m = q²+1 central blocks assigned.
  for (const std::size_t q : {2u, 3u, 4u}) {
    const TetraPartition part =
        TetraPartition::build(steiner::spherical_system(q));
    std::size_t central = 0;
    for (std::size_t p = 0; p < part.num_processors(); ++p) {
      EXPECT_EQ(part.N(p).size(), q) << "q=" << q << " p=" << p;
      EXPECT_LE(part.D(p).size(), 1u);
      central += part.D(p).size();
    }
    EXPECT_EQ(central, q * q + 1);
  }
}

TEST(SphericalPartition, StorageBoundSection613) {
  // Per-processor stored entries equal the closed form and ≈ n³/(6P).
  const std::size_t q = 3;
  const TetraPartition part =
      TetraPartition::build(steiner::spherical_system(q));
  const std::size_t b = 12;  // any block edge
  const std::size_t n = b * part.num_row_blocks();
  for (std::size_t p = 0; p < part.num_processors(); ++p) {
    const std::size_t stored = part.stored_entries(p, b);
    if (part.D(p).size() == 1) {
      EXPECT_EQ(stored, core::per_rank_storage_bound(q, b));
    } else {
      EXPECT_LT(stored, core::per_rank_storage_bound(q, b));
    }
    const double ratio =
        static_cast<double>(stored) /
        (static_cast<double>(n) * static_cast<double>(n) *
         static_cast<double>(n) /
         (6.0 * static_cast<double>(part.num_processors())));
    EXPECT_NEAR(ratio, 1.0, 0.25);  // ≈ n³/6P with lower-order slack
  }
}

TEST(TetraPartition, TotalTernaryMultsMatchAlgorithm4) {
  const TetraPartition part =
      TetraPartition::build(steiner::spherical_system(2));
  const std::size_t b = 7;
  const std::size_t n = b * part.num_row_blocks();
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < part.num_processors(); ++p) {
    total += part.ternary_mults(p, b);
  }
  EXPECT_EQ(total, core::symmetric_ternary_mults(n));
}

TEST(TetraPartition, OwnerRejectsBadCoords) {
  const TetraPartition part =
      TetraPartition::build(steiner::boolean_quadruple_system(3));
  EXPECT_THROW(static_cast<void>(part.owner({1, 2, 3})), PreconditionError);  // unsorted
  EXPECT_THROW(static_cast<void>(part.owner({99, 0, 0})), PreconditionError);
}

}  // namespace
}  // namespace sttsv::partition
