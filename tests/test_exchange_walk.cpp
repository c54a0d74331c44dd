// Algorithm 5's pair walk (Section 7.2.2) over every built-in Steiner
// family, at padded n: each rank talks exactly to the other members of
// its Q_i that carry traffic, over exactly the row blocks they share,
// and both ends of a pair agree on the message layout.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "partition/exchange_walk.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"

namespace sttsv::partition {
namespace {

struct WalkCase {
  const char* name;
  steiner::SteinerSystem (*system)();
  std::size_t n;
};

// Names each case in test listings (and so in ctest's test names).
void PrintTo(const WalkCase& c, std::ostream* os) { *os << c.name; }

class ExchangeWalkFamilies : public ::testing::TestWithParam<WalkCase> {};

TEST_P(ExchangeWalkFamilies, IsConsistent) {
  const TetraPartition part = TetraPartition::build(GetParam().system());
  const VectorDistribution dist(part, GetParam().n);
  ASSERT_NE(dist.padded_n(), dist.logical_n()) << "cases run padded";
  const ExchangeWalk walk(part, dist);
  const std::size_t P = part.num_processors();
  ASSERT_EQ(walk.num_processors(), P);
  for (std::size_t p = 0; p < P; ++p) {
    std::size_t prev_peer = 0;
    bool first = true;
    for (const ExchangeWalk::PeerExchange& ex : walk.exchanges(p)) {
      if (!first) {
        EXPECT_GT(ex.peer, prev_peer) << "peers ascending";
      }
      first = false;
      prev_peer = ex.peer;
      EXPECT_NE(ex.peer, p);

      std::size_t x_words = 0;
      std::size_t y_words = 0;
      std::size_t prev_block = 0;
      bool first_slice = true;
      for (const ExchangeWalk::BlockSlice& s : ex.slices) {
        if (!first_slice) {
          EXPECT_GT(s.block, prev_block);
        }
        first_slice = false;
        prev_block = s.block;
        x_words += s.sender.length;
        y_words += s.receiver.length;
      }
      EXPECT_EQ(ex.x_words, x_words);
      EXPECT_EQ(ex.y_words, y_words);

      // Phase-3 traffic p -> peer carries the peer's shares, i.e. what
      // the peer sends p in phase 1: the reverse record must agree.
      const ExchangeWalk::PeerExchange& rev =
          walk.exchange_between(ex.peer, p);
      EXPECT_EQ(ex.y_words, rev.x_words);
      EXPECT_EQ(ex.x_words, rev.y_words);
      EXPECT_EQ(ex.slices.size(), rev.slices.size());
    }
  }
}

TEST_P(ExchangeWalkFamilies, PeersAreTheQiMembersWithTraffic) {
  const TetraPartition part = TetraPartition::build(GetParam().system());
  const VectorDistribution dist(part, GetParam().n);
  const ExchangeWalk walk(part, dist);
  const std::size_t P = part.num_processors();
  const std::size_t m = part.num_row_blocks();
  bool some_pair_silent = false;
  for (std::size_t p = 0; p < P; ++p) {
    // ⋃_{i∈R_p} Q_i ∖ {p}, keeping the peers with nonzero traffic; the
    // shared blocks come from Q membership, not from R_p ∩ R_q.
    std::vector<std::size_t> want;
    for (const std::size_t i : part.R(p)) {
      for (const std::size_t q : part.Q(i)) {
        if (q != p) want.push_back(q);
      }
    }
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    std::vector<std::size_t> got;
    for (const ExchangeWalk::PeerExchange& ex : walk.exchanges(p)) {
      got.push_back(ex.peer);
    }
    std::vector<std::size_t> with_traffic;
    for (const std::size_t q : want) {
      std::vector<std::size_t> shared;
      std::size_t words = 0;
      for (std::size_t i = 0; i < m; ++i) {
        const auto& qi = part.Q(i);
        if (std::binary_search(qi.begin(), qi.end(), p) &&
            std::binary_search(qi.begin(), qi.end(), q)) {
          shared.push_back(i);
          words += dist.share(i, p).length + dist.share(i, q).length;
        }
      }
      EXPECT_LE(shared.size(), 2u) << "Steiner: |R_p ∩ R_q| <= 2";
      if (words == 0) {
        some_pair_silent = true;
        EXPECT_THROW((void)walk.exchange_between(p, q), PreconditionError);
        continue;
      }
      with_traffic.push_back(q);
      const ExchangeWalk::PeerExchange& ex = walk.exchange_between(p, q);
      ASSERT_EQ(ex.slices.size(), shared.size());
      for (std::size_t t = 0; t < shared.size(); ++t) {
        const ExchangeWalk::BlockSlice& s = ex.slices[t];
        EXPECT_EQ(s.block, shared[t]);
        EXPECT_EQ(s.sender.offset, dist.share(shared[t], p).offset);
        EXPECT_EQ(s.sender.length, dist.share(shared[t], p).length);
        EXPECT_EQ(s.receiver.offset, dist.share(shared[t], q).offset);
        EXPECT_EQ(s.receiver.length, dist.share(shared[t], q).length);
      }
    }
    EXPECT_EQ(got, with_traffic) << "rank " << p;
    EXPECT_THROW((void)walk.exchange_between(p, p), PreconditionError);
  }
  if (std::string(GetParam().name) == "trivial_m6") {
    EXPECT_TRUE(some_pair_silent) << "b < |Q_i| - 1 leaves silent pairs";
  }
}

TEST_P(ExchangeWalkFamilies, OwnedAndLocalIndexMatchThePartition) {
  const TetraPartition part = TetraPartition::build(GetParam().system());
  const VectorDistribution dist(part, GetParam().n);
  const ExchangeWalk walk(part, dist);
  for (std::size_t p = 0; p < part.num_processors(); ++p) {
    EXPECT_EQ(walk.owned(p), part.owned_blocks(p));
    const auto& rp = part.R(p);
    for (std::size_t i = 0; i < part.num_row_blocks(); ++i) {
      const auto it = std::find(rp.begin(), rp.end(), i);
      if (it == rp.end()) {
        EXPECT_THROW((void)walk.local_index(p, i), PreconditionError);
      } else {
        EXPECT_EQ(walk.local_index(p, i),
                  static_cast<std::size_t>(it - rp.begin()));
      }
    }
  }
}

steiner::SteinerSystem spherical_q2() { return steiner::spherical_system(2); }
steiner::SteinerSystem boolean_k3() {
  return steiner::boolean_quadruple_system(3);
}
steiner::SteinerSystem trivial_m6() {
  return steiner::trivial_triple_system(6);
}

// spherical q=2: m=5, |Q_i|=6, b=11. boolean k=3: m=8, |Q_i|=7, b=6, so
// one member per block holds an empty share. trivial m=6: m=6, |Q_i|=10,
// b=5, so half of each Q_i is empty and some pairs carry nothing.
INSTANTIATE_TEST_SUITE_P(
    Families, ExchangeWalkFamilies,
    ::testing::Values(WalkCase{"spherical_q2", &spherical_q2, 53},
                      WalkCase{"boolean_k3", &boolean_k3, 45},
                      WalkCase{"trivial_m6", &trivial_m6, 29}));

}  // namespace
}  // namespace sttsv::partition
