// Fault-injection runtime + resilient exchange protocol (DESIGN.md §10):
// under injected drop/corrupt/duplicate/reorder/stall faults the
// ReliableExchange-driven runs must return y bitwise identical to the
// fault-free run, keep the ledger's goodput channel at the fault-free
// value exactly, account all protocol cost on the overhead channel, and
// — when the retry budget is exceeded — produce a structured FaultReport
// (fail-fast throw or degraded-mode recovery), never a hang, crash, or
// silent wrong answer.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "batch/batched_run.hpp"
#include "batch/plan.hpp"
#include "core/parallel_sttsv.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "schedule/comm_schedule.hpp"
#include "simt/fault_injector.hpp"
#include "simt/machine.hpp"
#include "simt/reliable_exchange.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv {
namespace {

using simt::Channel;
using simt::FaultConfig;
using simt::FaultInjector;
using simt::RecoveryPolicy;
using simt::ReliableExchange;
using simt::RetryPolicy;
using simt::Transport;

struct Fixture {
  std::unique_ptr<partition::TetraPartition> part_ptr;
  std::unique_ptr<partition::VectorDistribution> dist_ptr;
  tensor::SymTensor3 a;
  std::vector<double> x;

  [[nodiscard]] const partition::TetraPartition& part() const {
    return *part_ptr;
  }
  [[nodiscard]] const partition::VectorDistribution& dist() const {
    return *dist_ptr;
  }
};

Fixture make_setup(std::size_t n, std::uint64_t seed) {
  auto part = std::make_unique<partition::TetraPartition>(
      partition::TetraPartition::build(steiner::spherical_system(2)));
  auto dist = std::make_unique<partition::VectorDistribution>(*part, n);
  Rng rng(seed);
  auto a = tensor::random_symmetric(n, rng);
  auto x = rng.uniform_vector(n);
  return Fixture{std::move(part), std::move(dist), std::move(a), std::move(x)};
}

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                           got.size() * sizeof(double)));
}

// The acceptance property of the whole subsystem: for a sweep of seeds
// and fault rates up to 20%, the resilient run's output is bitwise equal
// to the fault-free run and its goodput ledger channel is unchanged;
// everything resilience cost shows up on the overhead channel only.
TEST(Resilience, SeedSweepBitwiseAndGoodputInvariant) {
  const std::size_t n = 60;
  Fixture s = make_setup(n, 7);
  const std::size_t P = s.part().num_processors();

  // Fault-free reference: raw machine, raw exchange.
  simt::Machine clean(P);
  const auto ref = core::parallel_sttsv(clean, s.part(), s.dist(), s.a, s.x,
                                        Transport::kPointToPoint);

  std::uint64_t faults_seen = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    FaultConfig cfg;
    // Rates climb with the seed up to the 20% ceiling, mixing classes.
    const double rate = 0.20 * static_cast<double>(seed + 1) / 32.0;
    cfg.drop = rate;
    cfg.corrupt = rate * 0.8;
    cfg.duplicate = rate * 0.6;
    cfg.reorder = 0.25;
    cfg.stall = rate * 0.25;
    cfg.seed = 0xBADF00D + seed;
    FaultInjector injector(cfg);

    simt::Machine machine(P);
    machine.set_fault_injector(&injector);
    ReliableExchange rex(machine, RetryPolicy{32, 1, 64},
                         RecoveryPolicy::kFailFast);
    const auto got = core::parallel_sttsv(rex, s.part(), s.dist(), s.a, s.x,
                                          Transport::kPointToPoint);
    expect_bitwise(got.y, ref.y);

    // Goodput channel: exactly the fault-free ledger, rank by rank.
    for (std::size_t p = 0; p < P; ++p) {
      EXPECT_EQ(machine.ledger().words_sent(Channel::kGoodput, p),
                clean.ledger().words_sent(Channel::kGoodput, p))
          << "seed=" << seed << " p=" << p;
      EXPECT_EQ(machine.ledger().words_received(Channel::kGoodput, p),
                clean.ledger().words_received(Channel::kGoodput, p));
      EXPECT_EQ(machine.ledger().messages_sent(Channel::kGoodput, p),
                clean.ledger().messages_sent(Channel::kGoodput, p));
    }
    EXPECT_EQ(machine.ledger().rounds(), clean.ledger().rounds())
        << "goodput rounds must match the fault-free schedule";
    // Protocol cost is real and lands on the overhead channel.
    EXPECT_GT(machine.ledger().total_words(Channel::kOverhead), 0u);
    EXPECT_GT(machine.ledger().rounds(Channel::kOverhead), 0u);
    machine.ledger().verify_conservation();
    faults_seen += injector.log().size();
  }
  EXPECT_GT(faults_seen, 0u) << "sweep never injected a fault";
}

TEST(Resilience, AllToAllTransportSurvivesFaults) {
  Fixture s = make_setup(60, 11);
  const std::size_t P = s.part().num_processors();
  simt::Machine clean(P);
  const auto ref = core::parallel_sttsv(clean, s.part(), s.dist(), s.a, s.x,
                                        Transport::kAllToAll);

  FaultInjector injector({.drop = 0.15, .corrupt = 0.15, .duplicate = 0.15,
                          .reorder = 0.2, .stall = 0.05, .seed = 99});
  simt::Machine machine(P);
  machine.set_fault_injector(&injector);
  ReliableExchange rex(machine, RetryPolicy{32, 1, 64},
                       RecoveryPolicy::kFailFast);
  const auto got = core::parallel_sttsv(rex, s.part(), s.dist(), s.a, s.x,
                                        Transport::kAllToAll);
  expect_bitwise(got.y, ref.y);
  EXPECT_EQ(machine.ledger().max_words_sent(),
            clean.ledger().max_words_sent());
}

// High duplicate and drop rates force redelivery of frames whose ACKs
// were lost: the accept path must be idempotent for bitwise equality.
TEST(Resilience, RedeliveryIsIdempotent) {
  Fixture s = make_setup(60, 3);
  const std::size_t P = s.part().num_processors();
  simt::Machine clean(P);
  const auto ref = core::parallel_sttsv(clean, s.part(), s.dist(), s.a, s.x,
                                        Transport::kPointToPoint);

  FaultInjector injector(
      {.drop = 0.3, .duplicate = 0.5, .seed = 0xD0D0});
  simt::Machine machine(P);
  machine.set_fault_injector(&injector);
  ReliableExchange rex(machine, RetryPolicy{64, 1, 64},
                       RecoveryPolicy::kFailFast);
  const auto got = core::parallel_sttsv(rex, s.part(), s.dist(), s.a, s.x,
                                        Transport::kPointToPoint);
  expect_bitwise(got.y, ref.y);
  EXPECT_GT(rex.stats().duplicate_frames_ignored, 0u);
  EXPECT_GT(rex.stats().retransmitted_frames, 0u);
}

TEST(Resilience, FailFastThrowsStructuredReport) {
  Fixture s = make_setup(60, 5);
  const std::size_t P = s.part().num_processors();
  FaultInjector injector({.drop = 1.0, .seed = 1});  // nothing ever arrives
  simt::Machine machine(P);
  machine.set_fault_injector(&injector);
  ReliableExchange rex(machine, RetryPolicy{3, 1, 8},
                       RecoveryPolicy::kFailFast);
  try {
    core::parallel_sttsv(rex, s.part(), s.dist(), s.a, s.x,
                         Transport::kPointToPoint);
    FAIL() << "expected FaultError";
  } catch (const simt::FaultError& e) {
    const simt::FaultReport& r = e.report();
    EXPECT_EQ(r.phase, "x-panel");
    EXPECT_EQ(r.attempts_used, 3u);
    EXPECT_FALSE(r.degraded);
    EXPECT_FALSE(r.undelivered.empty());
    EXPECT_FALSE(r.affected_ranks.empty());
    for (const simt::FrameFault& f : r.undelivered) {
      EXPECT_EQ(f.attempts, 3u);
      EXPECT_LT(f.from, P);
      EXPECT_LT(f.to, P);
    }
    // The report points into the injection log for replay/audit.
    EXPECT_LT(r.injection_log_begin, r.injection_log_end);
    EXPECT_LE(r.injection_log_end, injector.log().size());
  }
}

TEST(Resilience, DegradedModeRecoversBitwise) {
  Fixture s = make_setup(60, 5);
  const std::size_t P = s.part().num_processors();
  simt::Machine clean(P);
  const auto ref = core::parallel_sttsv(clean, s.part(), s.dist(), s.a, s.x,
                                        Transport::kPointToPoint);

  FaultInjector injector({.drop = 1.0, .seed = 1});
  simt::Machine machine(P);
  machine.set_fault_injector(&injector);
  ReliableExchange rex(machine, RetryPolicy{2, 1, 8},
                       RecoveryPolicy::kDegrade);
  const auto got = core::parallel_sttsv(rex, s.part(), s.dist(), s.a, s.x,
                                        Transport::kPointToPoint);
  expect_bitwise(got.y, ref.y);
  ASSERT_FALSE(rex.reports().empty());
  for (const simt::FaultReport& r : rex.reports()) {
    EXPECT_TRUE(r.degraded);
    EXPECT_FALSE(r.undelivered.empty());
  }
  EXPECT_GT(rex.stats().degraded_deliveries, 0u);
  // Degraded replays are overhead; goodput still matches fault-free.
  for (std::size_t p = 0; p < P; ++p) {
    EXPECT_EQ(machine.ledger().words_sent(Channel::kGoodput, p),
              clean.ledger().words_sent(Channel::kGoodput, p));
  }
  machine.ledger().verify_conservation();
}

// Degraded-mode recovery across a seed sweep that mixes fault classes at
// rates high enough to exhaust the small retry budget regularly: the
// owner-compute replay must keep the output bitwise and goodput
// untouched.
TEST(Resilience, DegradeSeedSweep) {
  const std::size_t n = 60;
  Fixture s = make_setup(n, 43);
  const std::size_t P = s.part().num_processors();
  simt::Machine clean(P);
  const auto ref = core::parallel_sttsv(clean, s.part(), s.dist(), s.a, s.x,
                                        Transport::kPointToPoint);

  std::uint64_t degraded_runs = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    FaultInjector injector({.drop = 0.5 + 0.03 * static_cast<double>(seed % 8),
                            .corrupt = 0.2,
                            .duplicate = 0.2,
                            .reorder = 0.25,
                            .stall = 0.1,
                            .seed = 0xDB00 + seed});
    simt::Machine machine(P);
    machine.set_fault_injector(&injector);
    ReliableExchange rex(machine, RetryPolicy{2, 1, 4},
                         RecoveryPolicy::kDegrade);
    const auto got = core::parallel_sttsv(rex, s.part(), s.dist(), s.a, s.x,
                                          Transport::kPointToPoint);
    expect_bitwise(got.y, ref.y);
    for (std::size_t p = 0; p < P; ++p) {
      EXPECT_EQ(machine.ledger().words_sent(Channel::kGoodput, p),
                clean.ledger().words_sent(Channel::kGoodput, p))
          << "seed=" << seed << " p=" << p;
    }
    EXPECT_EQ(machine.ledger().rounds(), clean.ledger().rounds());
    machine.ledger().verify_conservation();
    if (!rex.reports().empty()) {
      ++degraded_runs;
      for (const simt::FaultReport& r : rex.reports()) {
        EXPECT_TRUE(r.degraded);
      }
    }
  }
  EXPECT_GT(degraded_runs, 0u)
      << "sweep never exhausted the retry budget; raise the fault rates";
}

TEST(Resilience, InjectorIsDeterministicPerSeed) {
  Fixture s = make_setup(60, 2);
  const std::size_t P = s.part().num_processors();
  const FaultConfig cfg{.drop = 0.2, .corrupt = 0.2, .duplicate = 0.2,
                        .reorder = 0.3, .stall = 0.1, .seed = 42};

  auto run = [&](const FaultConfig& c) {
    FaultInjector injector(c);
    simt::Machine machine(P);
    machine.set_fault_injector(&injector);
    ReliableExchange rex(machine, RetryPolicy{32, 1, 64},
                         RecoveryPolicy::kFailFast);
    core::parallel_sttsv(rex, s.part(), s.dist(), s.a, s.x,
                         Transport::kPointToPoint);
    return std::make_pair(injector.log(),
                          machine.ledger().max_words_sent(Channel::kOverhead));
  };

  const auto [log1, max_overhead1] = run(cfg);
  const auto [log2, max_overhead2] = run(cfg);
  ASSERT_EQ(log1.size(), log2.size());
  for (std::size_t i = 0; i < log1.size(); ++i) {
    EXPECT_EQ(log1[i].exchange_index, log2[i].exchange_index);
    EXPECT_EQ(static_cast<int>(log1[i].kind), static_cast<int>(log2[i].kind));
    EXPECT_EQ(log1[i].from, log2[i].from);
    EXPECT_EQ(log1[i].to, log2[i].to);
    EXPECT_EQ(log1[i].detail, log2[i].detail);
  }
  EXPECT_EQ(max_overhead1, max_overhead2);

  FaultConfig other = cfg;
  other.seed = 43;
  const auto [log3, max_overhead3] = run(other);
  (void)max_overhead3;
  EXPECT_GT(log1.size(), 0u);
  EXPECT_GT(log3.size(), 0u);
}

// Measured rounds (goodput + overhead) stay within the schedule-level
// retry model of schedule::rounds_with_retries.
TEST(Resilience, MeasuredRoundsWithinRetryModel) {
  Fixture s = make_setup(60, 13);
  const std::size_t P = s.part().num_processors();
  const RetryPolicy retry{8, 1, 64};

  FaultInjector injector({.drop = 0.2, .corrupt = 0.2, .seed = 77});
  simt::Machine machine(P);
  machine.set_fault_injector(&injector);
  ReliableExchange rex(machine, retry, RecoveryPolicy::kDegrade);
  core::parallel_sttsv(rex, s.part(), s.dist(), s.a, s.x,
                       Transport::kPointToPoint);

  simt::Machine clean(P);
  core::parallel_sttsv(clean, s.part(), s.dist(), s.a, s.x,
                       Transport::kPointToPoint);
  const std::size_t data_rounds =
      static_cast<std::size_t>(clean.ledger().rounds());

  // Two logical exchanges (x shares, y partials) plus a degraded replay
  // round each in the worst case.
  const std::size_t bound =
      2 * (schedule::rounds_with_retries(data_rounds, retry.max_attempts,
                                         retry.backoff_base_rounds,
                                         retry.backoff_cap_rounds) +
           data_rounds);
  EXPECT_LE(
      machine.ledger().rounds() + machine.ledger().rounds(Channel::kOverhead),
      bound);
}

// Fault-free through the protocol: goodput identical to the raw run and
// the overhead channel still prices the framing + ACK rounds, so the
// bench can report the cost of resilience itself.
TEST(Resilience, FaultFreeProtocolOverheadIsAccounted) {
  Fixture s = make_setup(60, 17);
  const std::size_t P = s.part().num_processors();
  simt::Machine clean(P);
  const auto ref = core::parallel_sttsv(clean, s.part(), s.dist(), s.a, s.x,
                                        Transport::kPointToPoint);

  simt::Machine machine(P);  // no injector installed
  ReliableExchange rex(machine);
  const auto got = core::parallel_sttsv(rex, s.part(), s.dist(), s.a, s.x,
                                        Transport::kPointToPoint);
  expect_bitwise(got.y, ref.y);
  EXPECT_EQ(machine.ledger().total_words(), clean.ledger().total_words());
  EXPECT_GT(machine.ledger().total_words(Channel::kOverhead), 0u);
  EXPECT_EQ(rex.stats().retransmitted_frames, 0u);
  EXPECT_EQ(rex.stats().duplicate_frames_ignored, 0u);
}

// Framing must not turn redistribution traffic into goodput: the protocol
// rejects recovery envelopes before it frames anything or charges the
// ledger.
TEST(Resilience, RejectsRecoveryEnvelopes) {
  simt::Machine machine(3);
  ReliableExchange rex(machine);
  std::vector<std::vector<simt::Envelope>> out(3);
  out[0].push_back(simt::Envelope{1, {1.0, 2.0, 3.0}, 0, true});
  EXPECT_THROW(rex.exchange(std::move(out), Transport::kPointToPoint),
               PreconditionError);
  const simt::CommLedger& ledger = machine.ledger();
  EXPECT_EQ(ledger.total_words(), 0u);
  EXPECT_EQ(ledger.total_words(Channel::kOverhead), 0u);
  EXPECT_EQ(ledger.total_words(Channel::kRecovery), 0u);
  EXPECT_EQ(ledger.rounds() + ledger.rounds(Channel::kOverhead) +
                ledger.rounds(Channel::kRecovery),
            0u);
  EXPECT_EQ(rex.stats().data_frames, 0u);
}

// Several frames per ordered pair, an outbox out of destination order,
// and later exchanges whose sequence numbers start past zero: under drops,
// corruption, duplicates and reordered inboxes every inbox must equal the
// clean machine's, sender by sender and bit for bit.
TEST(Resilience, ManyFramesPerPairMatchRawDelivery) {
  constexpr std::size_t P = 4;
  // (from, to, words) in each outbox's insertion order; rank 0 interleaves
  // its destinations.
  struct Send {
    std::size_t from, to, words;
  };
  const std::vector<Send> sends = {
      {0, 2, 2}, {0, 1, 1}, {0, 3, 3}, {0, 1, 4}, {0, 2, 1}, {0, 1, 2},
      {2, 0, 3}, {2, 0, 1}, {1, 3, 2}, {3, 1, 1}, {3, 1, 3}};
  const auto make_outboxes = [&](std::size_t exchange) {
    std::vector<std::vector<simt::Envelope>> out(P);
    for (std::size_t i = 0; i < sends.size(); ++i) {
      std::vector<double> payload(sends[i].words);
      for (std::size_t w = 0; w < payload.size(); ++w) {
        payload[w] = static_cast<double>(1000 * exchange + 10 * i + w) + 0.5;
      }
      out[sends[i].from].push_back(simt::Envelope{sends[i].to, payload});
    }
    return out;
  };
  const auto expect_same_inboxes =
      [](const std::vector<std::vector<simt::Delivery>>& got,
         const std::vector<std::vector<simt::Delivery>>& want) {
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t r = 0; r < want.size(); ++r) {
          ASSERT_EQ(got[r].size(), want[r].size()) << "r=" << r;
          for (std::size_t i = 0; i < want[r].size(); ++i) {
            EXPECT_EQ(got[r][i].from, want[r][i].from);
            ASSERT_EQ(got[r][i].data.size(), want[r][i].data.size());
            EXPECT_EQ(0, std::memcmp(got[r][i].data.data(),
                                     want[r][i].data.data(),
                                     want[r][i].data.size() * sizeof(double)))
                << "r=" << r << " i=" << i;
          }
        }
      };

  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reorders = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    FaultInjector injector({.drop = 0.2, .corrupt = 0.2, .duplicate = 0.2,
                            .reorder = 0.5, .seed = 0x5E0 + seed});
    simt::Machine machine(P);
    machine.set_fault_injector(&injector);
    ReliableExchange rex(machine, RetryPolicy{64, 1, 64},
                         RecoveryPolicy::kFailFast);
    simt::Machine clean(P);
    simt::DirectExchange clean_wire(clean);
    for (std::size_t k = 0; k < 3; ++k) {
      const auto want =
          clean_wire.exchange(make_outboxes(k), Transport::kPointToPoint);
      const auto got = rex.exchange(make_outboxes(k), Transport::kPointToPoint);
      expect_same_inboxes(got, want);
    }
    for (std::size_t p = 0; p < P; ++p) {
      EXPECT_EQ(machine.ledger().words_sent(Channel::kGoodput, p),
                clean.ledger().words_sent(Channel::kGoodput, p));
    }
    retransmits += rex.stats().retransmitted_frames;
    duplicates += rex.stats().duplicate_frames_ignored;
    for (const simt::FaultEvent& e : injector.log()) {
      if (e.kind == simt::FaultKind::kReorder) ++reorders;
    }
  }
  EXPECT_GT(retransmits, 0u);
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(reorders, 0u);
}

TEST(Resilience, BatchedRunSurvivesFaultsBitwise) {
  const std::size_t n = 60;
  const std::size_t B = 4;
  const auto key = batch::plan_key(n, batch::Family::kSpherical, 2,
                                   Transport::kPointToPoint);
  const auto plan = batch::Plan::build(key);
  Rng rng(21);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<std::vector<double>> xs;
  for (std::size_t v = 0; v < B; ++v) xs.push_back(rng.uniform_vector(n));

  simt::Machine clean(plan->num_processors());
  const auto ref = batch::parallel_sttsv_batch(clean, *plan, a, xs);

  FaultInjector injector({.drop = 0.2, .corrupt = 0.2, .duplicate = 0.2,
                          .reorder = 0.3, .stall = 0.05, .seed = 8});
  simt::Machine machine(plan->num_processors());
  machine.set_fault_injector(&injector);
  ReliableExchange rex(machine, RetryPolicy{32, 1, 64},
                       RecoveryPolicy::kFailFast);
  const auto got = batch::parallel_sttsv_batch(rex, *plan, a, xs);
  for (std::size_t v = 0; v < B; ++v) expect_bitwise(got.y[v], ref.y[v]);
  const simt::CommLedger& want = clean.ledger();
  const simt::CommLedger& faulty = machine.ledger();
  EXPECT_EQ(faulty.max_words_sent(), want.max_words_sent());
  EXPECT_EQ(faulty.max_words_received(), want.max_words_received());
  EXPECT_GT(faulty.max_words_sent(Channel::kOverhead), 0u);
  EXPECT_EQ(want.max_words_sent(Channel::kOverhead), 0u);
}

TEST(Resilience, EngineFailFastKeepsRequestsQueuedForRetry) {
  const std::size_t n = 60;
  const auto key = batch::plan_key(n, batch::Family::kSpherical, 2,
                                   Transport::kPointToPoint);
  const auto plan = batch::Plan::build(key);
  Rng rng(31);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x0 = rng.uniform_vector(n);
  const auto x1 = rng.uniform_vector(n);

  const std::vector<std::vector<double>> xs{x0, x1};
  simt::Machine clean(plan->num_processors());
  const auto want = batch::parallel_sttsv_batch(clean, *plan, a, xs).y;

  FaultInjector injector({.drop = 1.0, .seed = 4});
  simt::Machine machine(plan->num_processors());
  machine.set_fault_injector(&injector);
  ReliableExchange rex(machine, RetryPolicy{2, 1, 4},
                       RecoveryPolicy::kFailFast);
  EXPECT_THROW(batch::parallel_sttsv_batch(rex, *plan, a, xs),
               simt::FaultError);
  // The inputs stay with the caller: heal the network and retry the batch.
  machine.set_fault_injector(nullptr);
  const auto got = batch::parallel_sttsv_batch(rex, *plan, a, xs).y;
  ASSERT_EQ(got.size(), 2u);
  expect_bitwise(got[0], want[0]);
  expect_bitwise(got[1], want[1]);
}

TEST(Resilience, EngineDegradedModeCompletesBatches) {
  const std::size_t n = 60;
  const auto key = batch::plan_key(n, batch::Family::kSpherical, 2,
                                   Transport::kPointToPoint);
  const auto plan = batch::Plan::build(key);
  Rng rng(37);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x0 = rng.uniform_vector(n);

  simt::Machine clean(plan->num_processors());
  const auto want = batch::parallel_sttsv_batch(clean, *plan, a, {x0}).y;

  FaultInjector injector({.drop = 0.9, .seed = 6});
  simt::Machine machine(plan->num_processors());
  machine.set_fault_injector(&injector);
  ReliableExchange rex(machine, RetryPolicy{2, 1, 4},
                       RecoveryPolicy::kDegrade);
  const auto got = batch::parallel_sttsv_batch(rex, *plan, a, {x0}).y;
  ASSERT_EQ(got.size(), 1u);
  expect_bitwise(got[0], want[0]);
  EXPECT_FALSE(rex.reports().empty());
}

}  // namespace
}  // namespace sttsv
