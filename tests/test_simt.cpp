// Simulated machine tests: delivery semantics, ledger accounting,
// round/modeled-cost models for both transports.

#include <gtest/gtest.h>

#include "simt/fault_injector.hpp"
#include "simt/machine.hpp"
#include "simt/reliable_exchange.hpp"
#include "support/check.hpp"

namespace sttsv::simt {
namespace {

/// The machine's raw exchange, through the seam that forwards it verbatim.
std::vector<std::vector<Delivery>> wire(
    Machine& m, std::vector<std::vector<Envelope>> out, Transport transport) {
  return DirectExchange(m).exchange(std::move(out), transport);
}

TEST(Machine, DeliversSortedBySender) {
  Machine m(3);
  std::vector<std::vector<Envelope>> out(3);
  out[2].push_back(Envelope{0, {1.0, 2.0}});
  out[1].push_back(Envelope{0, {3.0}});
  const auto in = wire(m, std::move(out), Transport::kPointToPoint);
  ASSERT_EQ(in[0].size(), 2u);
  EXPECT_EQ(in[0][0].from, 1u);
  EXPECT_EQ(in[0][1].from, 2u);
  EXPECT_EQ(in[0][0].data, (std::vector<double>{3.0}));
  EXPECT_EQ(in[0][1].data, (std::vector<double>{1.0, 2.0}));
  EXPECT_TRUE(in[1].empty());
  EXPECT_TRUE(in[2].empty());
}

TEST(Machine, LedgerCountsWordsAndMessages) {
  Machine m(4);
  std::vector<std::vector<Envelope>> out(4);
  out[0].push_back(Envelope{1, {1, 2, 3}});
  out[0].push_back(Envelope{2, {4}});
  out[3].push_back(Envelope{0, {5, 6}});
  (void)wire(m, std::move(out), Transport::kPointToPoint);
  const auto& L = m.ledger();
  EXPECT_EQ(L.words_sent(Channel::kGoodput, 0), 4u);
  EXPECT_EQ(L.words_received(Channel::kGoodput, 1), 3u);
  EXPECT_EQ(L.words_received(Channel::kGoodput, 2), 1u);
  EXPECT_EQ(L.words_sent(Channel::kGoodput, 3), 2u);
  EXPECT_EQ(L.words_received(Channel::kGoodput, 0), 2u);
  EXPECT_EQ(L.messages_sent(Channel::kGoodput, 0), 2u);
  EXPECT_EQ(L.messages_received(Channel::kGoodput, 0), 1u);
  EXPECT_EQ(L.total_words(), 6u);
  EXPECT_EQ(L.total_messages(), 3u);
  EXPECT_EQ(L.pair_words(0, 1), 3u);
  EXPECT_EQ(L.pair_words(1, 0), 0u);
  EXPECT_EQ(L.active_pairs(), 3u);
  L.verify_conservation();
}

/// Each envelope kind's charge: a data envelope splits its goodput from
/// its framing and charges only the nonempty parts; a recovery envelope
/// charges its whole payload to recovery, even when empty. An injected
/// duplicate is charged whole, to overhead for data and to recovery for
/// recovery traffic, and holds no round slot.
TEST(Machine, ChargesEachEnvelopeKindOnItsChannel) {
  for (const bool duplicate : {false, true}) {
    Machine m(4);
    FaultInjector injector({.duplicate = duplicate ? 1.0 : 0.0});
    m.set_fault_injector(&injector);
    std::vector<std::vector<Envelope>> out(4);
    out[0].push_back(Envelope{1, {1, 2, 3, 4, 5}, 2});  // 3 goodput words
    out[1].push_back(Envelope{2, {}});                  // empty data
    out[2].push_back(Envelope{3, {6, 7}, 0, true});     // recovery
    out[3].push_back(Envelope{0, {}, 0, true});         // empty recovery
    const auto in = wire(m, std::move(out), Transport::kPointToPoint);
    m.set_fault_injector(nullptr);
    for (std::size_t p = 0; p < 4; ++p) {
      EXPECT_EQ(in[p].size(), duplicate ? 2u : 1u) << "p=" << p;
    }
    const CommLedger& L = m.ledger();
    EXPECT_EQ(L.total_words(), 3u);
    EXPECT_EQ(L.total_messages(), 1u);
    EXPECT_EQ(L.total_words(Channel::kOverhead), duplicate ? 7u : 2u);
    EXPECT_EQ(L.total_messages(Channel::kOverhead), duplicate ? 3u : 1u);
    EXPECT_EQ(L.total_words(Channel::kRecovery), duplicate ? 4u : 2u);
    EXPECT_EQ(L.total_messages(Channel::kRecovery), duplicate ? 4u : 2u);
    EXPECT_EQ(L.rounds(), 1u);
    EXPECT_EQ(L.rounds(Channel::kOverhead) + L.rounds(Channel::kRecovery),
              0u);
    L.verify_conservation();
  }
}

TEST(Machine, SelfSendRejected) {
  Machine m(2);
  std::vector<std::vector<Envelope>> out(2);
  out[0].push_back(Envelope{0, {1.0}});
  EXPECT_THROW(wire(m, std::move(out), Transport::kPointToPoint),
               PreconditionError);
}

TEST(Machine, PointToPointRoundsAreKoenigDelta) {
  // Rank 0 sends to 1, 2, 3 (out-degree 3); everyone else sends one.
  Machine m(4);
  std::vector<std::vector<Envelope>> out(4);
  for (std::size_t dest = 1; dest < 4; ++dest) {
    out[0].push_back(Envelope{dest, {0.0}});
  }
  out[1].push_back(Envelope{2, {0.0}});
  (void)wire(m, std::move(out), Transport::kPointToPoint);
  // Δ = max(out-degree 3, in-degree 2) = 3.
  EXPECT_EQ(m.ledger().rounds(), 3u);
}

TEST(Machine, AllToAllRoundsArePMinus1) {
  Machine m(5);
  std::vector<std::vector<Envelope>> out(5);
  out[0].push_back(Envelope{1, {1.0, 2.0, 3.0}});  // max message = 3 words
  out[2].push_back(Envelope{3, {1.0}});
  (void)wire(m, std::move(out), Transport::kAllToAll);
  EXPECT_EQ(m.ledger().rounds(), 4u);  // P - 1
  // Modeled cost: (P-1) * max pair message = 4 * 3 = 12 words.
  EXPECT_EQ(m.ledger().modeled_collective_words(), 12u);
}

TEST(Machine, ResetLedgerClears) {
  Machine m(2);
  std::vector<std::vector<Envelope>> out(2);
  out[0].push_back(Envelope{1, {1.0}});
  (void)wire(m, std::move(out), Transport::kPointToPoint);
  EXPECT_GT(m.ledger().total_words(), 0u);
  m.reset_ledger();
  EXPECT_EQ(m.ledger().total_words(), 0u);
  EXPECT_EQ(m.ledger().rounds(), 0u);
}

TEST(Machine, EmptyExchangeIsFree) {
  Machine m(3);
  (void)wire(m, std::vector<std::vector<Envelope>>(3),
             Transport::kPointToPoint);
  EXPECT_EQ(m.ledger().total_words(), 0u);
  EXPECT_EQ(m.ledger().rounds(), 0u);
}

TEST(Ledger, RanksOutOfRangeRejected) {
  CommLedger L(2);
  EXPECT_THROW(L.record(Channel::kGoodput, 0, 2, 1), PreconditionError);
  EXPECT_THROW(static_cast<void>(L.words_sent(Channel::kGoodput, 5)),
               PreconditionError);
}

}  // namespace
}  // namespace sttsv::simt
