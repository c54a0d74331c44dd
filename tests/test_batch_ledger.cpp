// Ledger invariants of the aggregated batched exchange (DESIGN.md §9):
// relative to one single-vector Algorithm-5 run on the same plan, a
// B-lane batch must send exactly B× the words per rank while keeping the
// message count, round count and modeled collective cost of ONE run —
// the whole point of the aggregation is that the latency (message) term
// is independent of the batch width.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "batch/batched_run.hpp"
#include "batch/plan.hpp"
#include "core/parallel_sttsv.hpp"
#include "simt/ledger.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv::batch {
namespace {

using simt::Channel;

struct RankCounters {
  std::vector<std::uint64_t> words_sent;
  std::vector<std::uint64_t> words_received;
  std::vector<std::uint64_t> messages_sent;
  std::vector<std::uint64_t> messages_received;
  std::uint64_t rounds = 0;
  std::uint64_t modeled_collective_words = 0;
};

RankCounters snapshot(const simt::CommLedger& ledger) {
  RankCounters c;
  for (std::size_t p = 0; p < ledger.num_ranks(); ++p) {
    c.words_sent.push_back(ledger.words_sent(Channel::kGoodput, p));
    c.words_received.push_back(ledger.words_received(Channel::kGoodput, p));
    c.messages_sent.push_back(ledger.messages_sent(Channel::kGoodput, p));
    c.messages_received.push_back(
        ledger.messages_received(Channel::kGoodput, p));
  }
  c.rounds = ledger.rounds();
  c.modeled_collective_words = ledger.modeled_collective_words();
  return c;
}

std::vector<std::vector<double>> make_panel(std::size_t n, std::size_t lanes,
                                            std::uint64_t seed) {
  std::vector<std::vector<double>> panel(lanes);
  for (std::size_t v = 0; v < lanes; ++v) {
    Rng rng(seed + v);
    panel[v] = rng.uniform_vector(n, -1.0, 1.0);
  }
  return panel;
}

void check_invariants(Family family, std::uint64_t param, std::size_t n,
                      simt::Transport transport) {
  const auto plan = Plan::build(plan_key(n, family, param, transport));
  simt::Machine machine = plan->make_machine();
  const std::size_t P = plan->num_processors();
  Rng rng(17);
  const auto a = tensor::random_symmetric(n, rng);
  const auto panel = make_panel(n, 8, 4000);

  // Baseline: one single-vector run.
  machine.reset_ledger();
  core::parallel_sttsv(machine, plan->partition(), plan->distribution(), a,
                       panel[0], transport);
  const RankCounters single = snapshot(machine.ledger());

  for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("B=" + std::to_string(lanes));
    const std::vector<std::vector<double>> x(
        panel.begin(), panel.begin() + static_cast<std::ptrdiff_t>(lanes));
    machine.reset_ledger();
    parallel_sttsv_batch(machine, *plan, a, x);
    const RankCounters batched = snapshot(machine.ledger());

    for (std::size_t p = 0; p < P; ++p) {
      // Words scale exactly with the panel width...
      EXPECT_EQ(batched.words_sent[p], lanes * single.words_sent[p])
          << "rank " << p;
      EXPECT_EQ(batched.words_received[p], lanes * single.words_received[p])
          << "rank " << p;
      // ...while the message count is that of ONE run, independent of B.
      EXPECT_EQ(batched.messages_sent[p], single.messages_sent[p])
          << "rank " << p;
      EXPECT_EQ(batched.messages_received[p], single.messages_received[p])
          << "rank " << p;
    }
    EXPECT_EQ(batched.rounds, single.rounds);
    EXPECT_EQ(batched.modeled_collective_words,
              lanes * single.modeled_collective_words);

    // The ledger maxima are the rank maxima.
    std::uint64_t max_sent = 0;
    std::uint64_t max_received = 0;
    for (std::size_t p = 0; p < P; ++p) {
      max_sent = std::max(max_sent, batched.words_sent[p]);
      max_received = std::max(max_received, batched.words_received[p]);
    }
    EXPECT_EQ(machine.ledger().max_words_sent(), max_sent);
    EXPECT_EQ(machine.ledger().max_words_received(), max_received);
    machine.ledger().verify_conservation();
  }
}

TEST(BatchLedger, SphericalPointToPoint) {
  check_invariants(Family::kSpherical, 2, 60,
                   simt::Transport::kPointToPoint);
}

TEST(BatchLedger, SphericalPointToPointPadded) {
  check_invariants(Family::kSpherical, 2, 53,
                   simt::Transport::kPointToPoint);
}

TEST(BatchLedger, SphericalAllToAll) {
  check_invariants(Family::kSpherical, 2, 60, simt::Transport::kAllToAll);
}

TEST(BatchLedger, BooleanPointToPoint) {
  check_invariants(Family::kBoolean, 3, 48,
                   simt::Transport::kPointToPoint);
}

TEST(BatchLedger, TrivialAllToAll) {
  check_invariants(Family::kTrivial, 5, 36, simt::Transport::kAllToAll);
}

TEST(BatchLedger, MaxWordsSentIsBTimesSingleVectorMax) {
  // The Theorem 5.2 quantity: the per-rank maximum scales exactly with B,
  // so words PER VECTOR stay at the single-vector (optimal) value.
  const auto plan = Plan::build(plan_key(
      60, Family::kSpherical, 2, simt::Transport::kPointToPoint));
  simt::Machine machine = plan->make_machine();
  Rng rng(23);
  const auto a = tensor::random_symmetric(60, rng);
  const auto panel = make_panel(60, 6, 8000);

  machine.reset_ledger();
  core::parallel_sttsv(machine, plan->partition(), plan->distribution(), a,
                       panel[0], simt::Transport::kPointToPoint);
  const std::uint64_t single_sent = machine.ledger().max_words_sent();
  const std::uint64_t single_received = machine.ledger().max_words_received();

  machine.reset_ledger();
  parallel_sttsv_batch(machine, *plan, a, panel);
  EXPECT_GT(single_sent, 0u);
  EXPECT_EQ(machine.ledger().max_words_sent(), 6u * single_sent);
  EXPECT_EQ(machine.ledger().max_words_received(), 6u * single_received);
}

}  // namespace
}  // namespace sttsv::batch
