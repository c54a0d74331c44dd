// One-sided transport subsystem tests (DESIGN.md §16): Puts hand the
// sender's slab over sender-sorted, Put delivery bitwise-equivalence
// against DirectExchange, the three-way cross-transport property sweep,
// sync-op metering (the α-term the paper's message-count bound prices),
// per-channel ledger conservation, the phase labels every backend sees,
// and the batch/serve plumbing.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "backends.hpp"
#include "batch/batched_run.hpp"
#include "batch/plan.hpp"
#include "core/parallel_sttsv.hpp"
#include "core/sttsv_seq.hpp"
#include "obs/metrics.hpp"
#include "onesided/onesided_exchange.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "serve/frontend.hpp"
#include "simt/buffer_pool.hpp"
#include "simt/collective.hpp"
#include "simt/machine.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv {
namespace {

using onesided::OneSidedExchange;
using simt::Channel;
using simt::Delivery;
using simt::Envelope;
using simt::Machine;
using simt::PooledBuffer;

// --- Exchanger semantics ----------------------------------------------------

TEST(OneSidedExchange, PutsHandOverTheSendersSlabSenderSorted) {
  Machine machine(3);
  OneSidedExchange ex(machine);
  EXPECT_FALSE(ex.supports_handler_delivery());

  std::vector<std::vector<Envelope>> out(3);
  out[2].push_back(Envelope{0, PooledBuffer{5.0, 6.0}});
  out[1].push_back(Envelope{0, PooledBuffer{7.0}});
  const double* sent_by_1 = out[1][0].data.data();
  const double* sent_by_2 = out[2][0].data.data();
  auto in = ex.exchange(std::move(out), simt::Transport::kPointToPoint);
  ASSERT_EQ(in[0].size(), 2u);
  EXPECT_EQ(in[0][0].from, 1u);  // origin-ascending like the mailbox path
  EXPECT_EQ(in[0][1].from, 2u);
  // No copy: each delivery is the sender's buffer itself.
  EXPECT_EQ(in[0][0].data.data(), sent_by_1);
  EXPECT_EQ(in[0][1].data.data(), sent_by_2);
  EXPECT_EQ(in[0][0].data[0], 7.0);
  EXPECT_EQ(in[0][1].data[1], 6.0);

  // Payload words hit the onesided channel, not goodput; conservation
  // holds per channel.
  const simt::CommLedger& led = machine.ledger();
  EXPECT_EQ(led.total_words(), 0u);
  EXPECT_EQ(led.total_words(Channel::kOneSided), 3u);
  EXPECT_EQ(led.total_messages(Channel::kOneSided), 2u);
  // α-term: two origins fenced plus one target notified.
  EXPECT_EQ(led.sync_ops(), 3u);
  led.verify_conservation();
}

TEST(OneSidedExchange, DeadEndpointsDropUncharged) {
  Machine machine(3);
  machine.mark_dead(2);
  OneSidedExchange ex(machine);
  std::vector<std::vector<Envelope>> out(3);
  out[0].push_back(Envelope{2, PooledBuffer{1.0}});  // to the dead rank
  out[2].push_back(Envelope{0, PooledBuffer{2.0}});  // from the dead rank
  out[0].push_back(Envelope{1, PooledBuffer{3.0}});  // alive pair
  auto in = ex.exchange(std::move(out), simt::Transport::kPointToPoint);
  EXPECT_TRUE(in[0].empty());
  ASSERT_EQ(in[1].size(), 1u);
  EXPECT_EQ(machine.ledger().total_words(Channel::kOneSided), 1u);
  EXPECT_EQ(machine.ledger().total_messages(Channel::kOneSided), 1u);
  // One origin fenced, one target notified: the dropped Puts sync nothing.
  EXPECT_EQ(machine.ledger().sync_ops(), 2u);
  machine.ledger().verify_conservation();
}

TEST(OneSidedExchange, RecoveryFlaggedPutsChargeRecoveryChannel) {
  Machine machine(2);
  OneSidedExchange ex(machine);
  std::vector<std::vector<Envelope>> out(2);
  out[0].push_back(Envelope{1, PooledBuffer{1.0, 2.0}, 0, /*recovery=*/true});
  (void)ex.exchange(std::move(out), simt::Transport::kPointToPoint);
  const simt::CommLedger& led = machine.ledger();
  EXPECT_EQ(led.total_words(Channel::kOneSided), 0u);
  EXPECT_EQ(led.total_words(Channel::kRecovery), 2u);
  // The pure-recovery epoch's rounds.
  EXPECT_EQ(led.rounds(Channel::kRecovery), 1u);
  led.verify_conservation();
}

TEST(OneSidedExchange, RejectsFramedEnvelopesBeforeAnyPut) {
  Machine machine(2);
  OneSidedExchange ex(machine);
  std::vector<std::vector<Envelope>> out(2);
  out[0].push_back(Envelope{1, PooledBuffer{1.0, 2.0}, /*overhead_words=*/1});
  EXPECT_THROW(ex.exchange(std::move(out), simt::Transport::kPointToPoint),
               PreconditionError);
  // Strong guarantee: nothing charged.
  EXPECT_EQ(machine.ledger().total_words(Channel::kOneSided), 0u);
  EXPECT_EQ(machine.ledger().sync_ops(), 0u);
}

// --- Driver equivalence -----------------------------------------------------

struct DriverSetup {
  std::unique_ptr<partition::TetraPartition> part;
  std::unique_ptr<partition::VectorDistribution> dist;
  tensor::SymTensor3 a;
  std::vector<double> x;
};

DriverSetup make_setup(steiner::SteinerSystem sys, std::size_t n,
                 std::uint64_t seed) {
  auto part = std::make_unique<partition::TetraPartition>(
      partition::TetraPartition::build(std::move(sys)));
  auto dist = std::make_unique<partition::VectorDistribution>(*part, n);
  Rng rng(seed);
  auto a = tensor::random_symmetric(n, rng);
  auto x = rng.uniform_vector(n);
  return DriverSetup{std::move(part), std::move(dist), std::move(a), std::move(x)};
}

std::vector<double> run_with(const DriverSetup& s, const char* backend,
                             simt::Transport transport) {
  Machine machine(s.part->num_processors());
  auto ex = test::make_backend(backend, machine);
  return core::parallel_sttsv(*ex, *s.part, *s.dist, s.a, s.x, transport).y;
}

TEST(DriverEquivalence, PutMatchesDirectBitwise) {
  const DriverSetup s = make_setup(steiner::spherical_system(2), 61, 11);
  for (const simt::Transport transport :
       {simt::Transport::kPointToPoint, simt::Transport::kAllToAll}) {
    const auto want = run_with(s, "direct", transport);
    const auto put = run_with(s, "onesided", transport);
    ASSERT_EQ(want.size(), put.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(put[i], want[i]) << "put i=" << i;
    }
  }
}

TEST(DriverEquivalence, ThirtyTwoSeedCrossTransportSweep) {
  // 32 seeds, the three flat backends, y bitwise identical and
  // per-channel conservation after every run.
  const struct {
    steiner::SteinerSystem sys;
    std::size_t n;
  } cases[] = {
      {steiner::spherical_system(2), 53},          // P = 10
      {steiner::boolean_quadruple_system(3), 43},  // P = 14
  };
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const auto& c = cases[seed % 2];
    const DriverSetup s = make_setup(c.sys, c.n, 1000 + seed);
    std::vector<double> want;
    for (const char* backend : {"direct", "reliable", "onesided"}) {
      Machine machine(s.part->num_processors());
      auto ex = test::make_backend(backend, machine);
      const auto result = core::parallel_sttsv(
          *ex, *s.part, *s.dist, s.a, s.x, simt::Transport::kPointToPoint);
      machine.ledger().verify_conservation();
      for (const Channel ch : simt::kAllChannels) {
        std::uint64_t sent = 0;
        std::uint64_t received = 0;
        for (std::size_t p = 0; p < machine.num_ranks(); ++p) {
          sent += machine.ledger().words_sent(ch, p);
          received += machine.ledger().words_received(ch, p);
        }
        ASSERT_EQ(sent, received)
            << "seed=" << seed << " channel=" << simt::channel_name(ch);
      }
      if (want.empty()) {
        want = result.y;
      } else {
        ASSERT_EQ(result.y.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(result.y[i], want[i])
              << "seed=" << seed << " backend=" << backend << " i=" << i;
        }
      }
    }
  }
}

TEST(DriverEquivalence, OneSidedSyncOpsBelowDirectMessages) {
  // The acceptance criterion: at equal payload words, the one-sided
  // α-term (sync ops) is strictly below Direct's envelope count whenever
  // ranks average more than one peer — here P = 10, every rank talks to
  // 6 peers per phase.
  const DriverSetup s = make_setup(steiner::spherical_system(2), 60, 21);

  Machine direct_machine(s.part->num_processors());
  simt::DirectExchange direct(direct_machine);
  (void)core::parallel_sttsv(direct, *s.part, *s.dist, s.a, s.x,
                             simt::Transport::kPointToPoint);

  Machine os_machine(s.part->num_processors());
  OneSidedExchange put(os_machine);
  (void)core::parallel_sttsv(put, *s.part, *s.dist, s.a, s.x,
                             simt::Transport::kPointToPoint);

  // Equal payload words, just accounted on different channels.
  EXPECT_EQ(os_machine.ledger().total_words(Channel::kOneSided),
            direct_machine.ledger().total_words());
  EXPECT_LT(os_machine.ledger().sync_ops(),
            direct_machine.ledger().total_messages());
  // And the sync count scales with ranks, not pairs: two phases, at most
  // 2 sync ops per rank each (fence + notification).
  EXPECT_LE(os_machine.ledger().sync_ops(),
            2 * 2 * os_machine.num_ranks());
  // Rounds match the same König schedule on the onesided channel.
  EXPECT_EQ(os_machine.ledger().rounds(Channel::kOneSided),
            direct_machine.ledger().rounds());
}

TEST(DriverEquivalence, WarmedOneSidedRunIsAllocationFree) {
  const DriverSetup s = make_setup(steiner::spherical_system(2), 60, 31);
  Machine machine(s.part->num_processors());
  OneSidedExchange ex(machine);
  (void)core::parallel_sttsv(ex, *s.part, *s.dist, s.a, s.x,
                             simt::Transport::kPointToPoint);
  simt::AllocationGuard guard(machine.pool());
  (void)core::parallel_sttsv(ex, *s.part, *s.dist, s.a, s.x,
                             simt::Transport::kPointToPoint);
  EXPECT_EQ(guard.new_slab_allocations(), 0u);
}

/// Forwards every call to `inner` and records what the driver asked of
/// it: the phase label current at each exchange(), every set_phase()
/// label, and how many multi-part exchanges were opened.
class CountingExchanger final : public simt::Exchanger {
 public:
  explicit CountingExchanger(simt::Exchanger& inner)
      : Exchanger(inner.machine()), inner_(inner) {}

  std::vector<std::vector<Delivery>> exchange(
      std::vector<std::vector<Envelope>> outboxes,
      simt::Transport transport) override {
    exchanges.push_back(phase_);
    return inner_.exchange(std::move(outboxes), transport);
  }
  std::unique_ptr<Parts> begin_parts(simt::Transport transport) override {
    ++begin_parts_calls;
    return inner_.begin_parts(transport);
  }
  void set_phase(const char* phase) override {
    phase_ = phase;
    phases.push_back(phase);
    inner_.set_phase(phase);
  }

  std::vector<std::string> exchanges;
  std::vector<std::string> phases;
  std::size_t begin_parts_calls = 0;

 private:
  simt::Exchanger& inner_;
  std::string phase_ = "unlabeled";
};

TEST(DriverEquivalence, OneExchangePerPhaseOnEveryBackend) {
  const std::size_t n = 53;
  const DriverSetup s = make_setup(steiner::spherical_system(2), n, 31);
  const std::size_t P = s.part->num_processors();
  const auto plan = batch::Plan::build(batch::plan_key(
      n, batch::Family::kSpherical, 2, simt::Transport::kPointToPoint));
  Rng rng(32);
  std::vector<std::vector<double>> panel(3);
  for (auto& xv : panel) xv = rng.uniform_vector(n);
  const std::vector<std::string> want = {"x-panel", "y-panel"};
  for (const char* backend : test::kBackends) {
    SCOPED_TRACE(backend);
    for (const bool batched : {false, true}) {
      SCOPED_TRACE(batched ? "parallel_sttsv_batch" : "parallel_sttsv");
      Machine machine(P);
      const auto inner = test::make_backend(backend, machine);
      CountingExchanger counting(*inner);
      if (batched) {
        (void)batch::parallel_sttsv_batch(counting, *plan, s.a, panel);
      } else {
        (void)core::parallel_sttsv(counting, *s.part, *s.dist, s.a, s.x,
                                   simt::Transport::kPointToPoint);
      }
      EXPECT_EQ(counting.exchanges, want);
      EXPECT_EQ(counting.phases, want);
      EXPECT_EQ(counting.begin_parts_calls, 0u);
    }

    // The allreduce behind HOPM's norms: 2·ceil(log2 P) exchanges (8 at
    // P = 10), each labelled by the allreduce itself.
    Machine machine(P);
    const auto inner = test::make_backend(backend, machine);
    CountingExchanger counting(*inner);
    (void)simt::allreduce_sum(counting,
                              std::vector<std::vector<double>>(P, {1.0}));
    EXPECT_EQ(counting.exchanges, std::vector<std::string>(8, "allreduce"));
    EXPECT_EQ(counting.begin_parts_calls, 0u);
  }
}

// --- Ledger channels --------------------------------------------------------

TEST(LedgerChannels, ConservationFiresOnEveryChannel) {
  for (const Channel ch : simt::kAllChannels) {
    Machine machine(3);
    machine.ledger().verify_conservation();
    machine.ledger().debug_skew_sent_for_test(ch, simt::Level::kIntra, 1, 5);
    EXPECT_THROW(machine.ledger().verify_conservation(), InternalError)
        << simt::channel_name(ch);
  }
}

TEST(LedgerChannels, OneSidedMetricsExported) {
  Machine machine(2);
  machine.ledger().record(Channel::kOneSided, 0, 1, 7);
  machine.ledger().add_rounds(Channel::kOneSided, 2);
  machine.ledger().add_sync_ops(simt::Level::kIntra, 3);
  obs::MetricsRegistry reg;
  machine.ledger().to_metrics(reg);
  EXPECT_EQ(reg.counter("ledger.onesided.total_words"), 7u);
  EXPECT_EQ(reg.counter("ledger.onesided.rounds"), 2u);
  EXPECT_EQ(reg.counter("ledger.onesided.sync_ops"), 3u);
  // The goodput names tests and dashboards key on are unchanged.
  EXPECT_EQ(reg.counter("ledger.goodput.total_words"), 0u);
}

// --- Batch and serve plumbing -----------------------------------------------

TEST(EnginePlumbing, OneSidedTransportMatchesDirectBitwise) {
  const std::size_t n = 60;
  const auto plan = batch::Plan::build(batch::plan_key(
      n, batch::Family::kSpherical, 2, simt::Transport::kPointToPoint));
  Rng rng(41);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<std::vector<double>> xs;
  for (int k = 0; k < 5; ++k) xs.push_back(rng.uniform_vector(n));

  const auto run = [&](const char* backend) {
    Machine machine(plan->num_processors());
    const auto ex = test::make_backend(backend, machine);
    // Batches of at most 4: a full 4-lane panel and a 1-lane tail.
    std::vector<std::vector<double>> ys;
    for (std::size_t v = 0; v < xs.size(); v += 4) {
      std::vector<std::vector<double>> panel;
      for (std::size_t k = v; k < std::min(v + 4, xs.size()); ++k) {
        panel.push_back(xs[k]);
      }
      for (auto& y : batch::parallel_sttsv_batch(*ex, *plan, a, panel).y) {
        ys.push_back(std::move(y));
      }
    }
    if (std::string(backend) != "direct") {
      EXPECT_GT(machine.ledger().total_words(Channel::kOneSided), 0u);
      EXPECT_EQ(machine.ledger().total_words(), 0u);
    }
    machine.ledger().verify_conservation();
    return ys;
  };

  const auto want = run("direct");
  const auto put = run("onesided");
  for (std::size_t v = 0; v < want.size(); ++v) {
    ASSERT_EQ(put[v], want[v]) << "put v=" << v;
  }
}

TEST(ServePlumbing, TenantOneSidedAttributionSumsToLedger) {
  const std::size_t n = 36;
  const auto plan = batch::Plan::build(batch::plan_key(
      n, batch::Family::kTrivial, 5, simt::Transport::kPointToPoint));
  Machine machine(plan->num_processors());
  Rng rng(2026);
  const auto a = tensor::random_symmetric(n, rng);
  OneSidedExchange put(machine);
  serve::FrontendOptions opts;
  opts.batch_width = 4;
  opts.exchanger = &put;
  serve::Frontend fe(machine, plan, a, opts);
  const serve::TenantId t0 = fe.add_tenant("alpha");
  const serve::TenantId t1 = fe.add_tenant("beta");
  for (std::size_t k = 0; k < 6; ++k) {
    ASSERT_TRUE(fe.submit(k % 2 == 0 ? t0 : t1, rng.uniform_vector(n),
                          nullptr)
                    .admitted);
  }
  fe.drain();
  const std::uint64_t attributed = fe.tenant_stats(t0).onesided_words +
                                   fe.tenant_stats(t1).onesided_words;
  EXPECT_GT(attributed, 0u);
  EXPECT_EQ(attributed, machine.ledger().total_words(Channel::kOneSided));
  EXPECT_EQ(machine.ledger().total_words(), 0u);  // no mailbox goodput
  obs::MetricsRegistry reg;
  fe.publish_metrics(reg);
  EXPECT_EQ(reg.counter("serve.tenant.alpha.onesided_words"),
            fe.tenant_stats(t0).onesided_words);
}

}  // namespace
}  // namespace sttsv
