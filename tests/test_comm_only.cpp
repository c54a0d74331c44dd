// The communication-only replay must produce EXACTLY the ledger of a
// full parallel_sttsv run — this is what licenses the large-q sweeps in
// the bench harness.

#include <gtest/gtest.h>

#include <ostream>

#include "core/comm_only.hpp"
#include "core/parallel_sttsv.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "steiner/constructions.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv::core {
namespace {

using simt::Channel;

void expect_ledgers_equal(const simt::CommLedger& a,
                          const simt::CommLedger& b) {
  ASSERT_EQ(a.num_ranks(), b.num_ranks());
  for (std::size_t p = 0; p < a.num_ranks(); ++p) {
    EXPECT_EQ(a.words_sent(Channel::kGoodput, p),
              b.words_sent(Channel::kGoodput, p))
        << "p=" << p;
    EXPECT_EQ(a.words_received(Channel::kGoodput, p),
              b.words_received(Channel::kGoodput, p))
        << "p=" << p;
    EXPECT_EQ(a.messages_sent(Channel::kGoodput, p),
              b.messages_sent(Channel::kGoodput, p))
        << "p=" << p;
    EXPECT_EQ(a.messages_received(Channel::kGoodput, p),
              b.messages_received(Channel::kGoodput, p))
        << "p=" << p;
  }
  EXPECT_EQ(a.rounds(), b.rounds());
  EXPECT_EQ(a.modeled_collective_words(), b.modeled_collective_words());
  for (std::size_t p = 0; p < a.num_ranks(); ++p) {
    for (std::size_t q = 0; q < a.num_ranks(); ++q) {
      if (p == q) continue;
      EXPECT_EQ(a.pair_words(p, q), b.pair_words(p, q));
    }
  }
}

struct Case {
  std::size_t q;
  std::size_t n;
  simt::Transport transport;
};

// Names each case in ctest listings; the raw bytes gtest would print
// include the struct's uninitialised padding.
void PrintTo(const Case& c, std::ostream* os) {
  *os << "q" << c.q << "_n" << c.n
      << (c.transport == simt::Transport::kAllToAll ? "_a2a" : "_p2p");
}

class CommOnlyEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(CommOnlyEquivalence, LedgerIdenticalToFullRun) {
  const auto [q, n, transport] = GetParam();
  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(q));
  const partition::VectorDistribution dist(part, n);
  Rng rng(q + n);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);

  simt::Machine full(part.num_processors());
  (void)parallel_sttsv(full, part, dist, a, x, transport);

  simt::Machine replay(part.num_processors());
  simt::DirectExchange replay_direct(replay);
  simulate_communication(replay_direct, part, dist, transport);

  expect_ledgers_equal(full.ledger(), replay.ledger());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CommOnlyEquivalence,
    ::testing::Values(Case{2, 60, simt::Transport::kPointToPoint},
                      Case{2, 60, simt::Transport::kAllToAll},
                      Case{2, 41, simt::Transport::kPointToPoint},
                      Case{3, 120, simt::Transport::kPointToPoint},
                      Case{3, 97, simt::Transport::kAllToAll}));

TEST(CommOnly, LargeQSweepRunsFast) {
  // q = 8: P = 520 ranks — infeasible for a real tensor on this box but
  // instant for the replay. Sanity: communication balanced and positive.
  const std::size_t q = 8;
  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(q));
  const std::size_t n = (q * q + 1) * q * (q + 1);
  const partition::VectorDistribution dist(part, n);
  simt::Machine machine(part.num_processors());
  simt::DirectExchange direct(machine);
  simulate_communication(direct, part, dist,
                         simt::Transport::kPointToPoint);
  const auto max_sent = machine.ledger().max_words_sent();
  EXPECT_GT(max_sent, 0u);
  for (std::size_t p = 0; p < part.num_processors(); ++p) {
    EXPECT_EQ(machine.ledger().words_sent(Channel::kGoodput, p), max_sent);
  }
}

}  // namespace
}  // namespace sttsv::core
