// Rank-loss recovery (DESIGN.md §15): crash faults are seeded and
// replayable, the liveness detector turns permanent silence into a
// structured RankLossReport, the elastic layer shrinks the role
// assignment onto the survivors with a verified minimal redistribution,
// and the resumed run's y is bitwise identical to a fault-free run at
// the shrunken width — with the three-way ledger conservation intact and
// measured redistribution words equal to the planned diff to the word.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "backends.hpp"
#include "core/parallel_sttsv.hpp"
#include "elastic/assignment.hpp"
#include "elastic/recovery.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/fault_injector.hpp"
#include "simt/machine.hpp"
#include "simt/reliable_exchange.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv {
namespace {

using elastic::BlockAssignment;
using simt::Channel;
using simt::FaultConfig;
using simt::FaultInjector;
using simt::FaultKind;
using simt::LivenessPolicy;
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

// ---------------------------------------------------------------------
// Crash fault model
// ---------------------------------------------------------------------

TEST(Recovery, ScheduledCrashIsReplayable) {
  FaultInjector injector(FaultConfig{.seed = 11});
  injector.schedule_crash(2, 1);
  EXPECT_FALSE(injector.is_dead(2));
  injector.begin_exchange();  // exchange 1 starts: the crash fires
  EXPECT_TRUE(injector.is_dead(2));
  ASSERT_EQ(injector.dead_ranks(), (std::vector<std::size_t>{2}));
  ASSERT_EQ(injector.log().size(), 1u);
  EXPECT_EQ(injector.log()[0].kind, FaultKind::kCrash);
  EXPECT_EQ(injector.log()[0].from, 2u);
  EXPECT_EQ(injector.log()[0].exchange_index, 1u);
  // Scheduling into the past (exchange 1 already started) is misuse.
  EXPECT_THROW(injector.schedule_crash(4, 1), PreconditionError);
  // A second replay with the same schedule produces the same death.
  FaultInjector replay(FaultConfig{.seed = 11});
  replay.schedule_crash(2, 1);
  replay.begin_exchange();
  EXPECT_EQ(replay.dead_ranks(), injector.dead_ranks());
}

TEST(Recovery, ProbabilisticCrashIsSeededAndDropsDeadTraffic) {
  simt::Machine machine(4);  // pool source only; no exchange here
  const double payload[2] = {1.0, 2.0};

  auto roll = [&](std::uint64_t seed) {
    FaultInjector injector(FaultConfig{.crash = 0.5, .seed = seed});
    std::vector<std::size_t> deaths;
    for (int ex = 0; ex < 6; ++ex) {
      injector.begin_exchange();
      for (std::size_t from = 0; from < 4; ++from) {
        simt::PooledBuffer buf = machine.pool().acquire(from, 2);
        buf.append(payload, 2);
        injector.on_frame(from, (from + 1) % 4, buf);
      }
      deaths = injector.dead_ranks();
    }
    return deaths;
  };
  const auto d1 = roll(0xDEAD);
  const auto d2 = roll(0xDEAD);
  EXPECT_EQ(d1, d2) << "crash rolls must be deterministic per seed";

  // A dead sender's frames are dropped without new log entries: death is
  // one kCrash event, not a stream of drops.
  FaultInjector injector(FaultConfig{.seed = 3});
  injector.schedule_crash(1, 1);
  injector.begin_exchange();
  const std::size_t log_after_death = injector.log().size();
  simt::PooledBuffer buf = machine.pool().acquire(1, 2);
  buf.append(payload, 2);
  EXPECT_EQ(injector.on_frame(1, 0, buf), FaultInjector::Action::kDrop);
  EXPECT_EQ(injector.log().size(), log_after_death);
}

// ---------------------------------------------------------------------
// Machine membership + ledger recovery channel
// ---------------------------------------------------------------------

TEST(Recovery, MachineDropsDeadEndpointTrafficUncharged) {
  simt::Machine machine(4);
  EXPECT_EQ(machine.num_alive(), 4u);
  EXPECT_EQ(machine.membership_epoch(), 0u);
  machine.mark_dead(3);
  machine.mark_dead(3);  // idempotent
  EXPECT_FALSE(machine.alive(3));
  EXPECT_EQ(machine.num_alive(), 3u);
  EXPECT_EQ(machine.membership_epoch(), 1u);
  EXPECT_EQ(machine.dead_ranks(), (std::vector<std::size_t>{3}));

  const double payload[2] = {4.0, 5.0};
  std::vector<std::vector<simt::Envelope>> out(4);
  auto send = [&](std::size_t from, std::size_t to) {
    simt::PooledBuffer buf = machine.pool().acquire(from, 2);
    buf.append(payload, 2);
    out[from].push_back(simt::Envelope{to, std::move(buf)});
  };
  send(0, 1);  // live -> live: delivered and charged
  send(0, 3);  // live -> dead: dropped below the injector, uncharged
  send(3, 1);  // dead -> live: dropped, uncharged
  auto in = simt::DirectExchange(machine).exchange(std::move(out),
                                                   Transport::kPointToPoint);
  ASSERT_EQ(in[1].size(), 1u);
  EXPECT_EQ(in[1][0].from, 0u);
  EXPECT_TRUE(in[3].empty());
  EXPECT_EQ(machine.ledger().total_words(), 2u);
  EXPECT_EQ(machine.ledger().words_sent(Channel::kGoodput, 3), 0u);
  machine.ledger().verify_conservation();

  // The last live rank cannot be killed.
  machine.mark_dead(1);
  machine.mark_dead(2);
  EXPECT_THROW(machine.mark_dead(0), PreconditionError);
}

TEST(Recovery, RecoveryChannelConservesAndSkewFires) {
  simt::Machine machine(3);
  const double payload[3] = {1.0, 2.0, 3.0};
  std::vector<std::vector<simt::Envelope>> out(3);
  simt::PooledBuffer buf = machine.pool().acquire(0, 3);
  buf.append(payload, 3);
  simt::Envelope env;
  env.to = 2;
  env.data = std::move(buf);
  env.recovery = true;
  out[0].push_back(std::move(env));
  auto in = simt::DirectExchange(machine).exchange(std::move(out),
                                                   Transport::kPointToPoint);
  ASSERT_EQ(in[2].size(), 1u);

  const simt::CommLedger& led = machine.ledger();
  EXPECT_EQ(led.total_words(Channel::kRecovery), 3u);
  EXPECT_EQ(led.words_sent(Channel::kRecovery, 0), 3u);
  EXPECT_EQ(led.words_received(Channel::kRecovery, 2), 3u);
  EXPECT_EQ(led.total_messages(Channel::kRecovery), 1u);
  EXPECT_GE(led.rounds(Channel::kRecovery), 1u);
  // Recovery traffic never leaks into goodput or overhead.
  EXPECT_EQ(led.total_words(), 0u);
  EXPECT_EQ(led.total_words(Channel::kOverhead), 0u);
  EXPECT_EQ(led.rounds(), 0u);
  led.verify_conservation();

  machine.ledger().debug_skew_sent_for_test(Channel::kRecovery,
                                            simt::Level::kIntra, 1, 5);
  EXPECT_THROW(machine.ledger().verify_conservation(), InternalError);
}

// ---------------------------------------------------------------------
// Elastic role assignment
// ---------------------------------------------------------------------

TEST(Recovery, AssignmentShrinkIsDeterministicAndBalanced) {
  const std::size_t P = 10;
  const BlockAssignment id = BlockAssignment::identity(P);
  EXPECT_EQ(id.num_roles(), P);
  EXPECT_EQ(id.epoch(), 0u);
  id.validate();
  for (std::size_t r = 0; r < P; ++r) EXPECT_EQ(id.host(r), r);

  const BlockAssignment one = id.shrink({3});
  one.validate();
  EXPECT_EQ(one.epoch(), 1u);
  EXPECT_EQ(one.live_ranks().size(), P - 1);
  EXPECT_NE(one.host(3), 3u);  // the orphan moved...
  for (std::size_t r = 0; r < P; ++r) {
    if (r != 3) {
      EXPECT_EQ(one.host(r), r);  // ...and nothing else did
    }
  }

  const BlockAssignment two = one.shrink({7, 1});
  two.validate();
  EXPECT_EQ(two.epoch(), 2u);
  EXPECT_EQ(two.live_ranks().size(), P - 3);
  std::size_t lo = P, hi = 0;
  for (const std::size_t h : two.live_ranks()) {
    const std::size_t load = two.roles_of(h).size();
    lo = std::min(lo, load);
    hi = std::max(hi, load);
  }
  EXPECT_LE(hi - lo, 1u) << "greedy re-homing must stay balanced";

  // Deterministic: shrinking the same dead set twice gives equal hosts.
  const BlockAssignment again = one.shrink({1, 7, 7});
  for (std::size_t r = 0; r < P; ++r) EXPECT_EQ(again.host(r), two.host(r));

  EXPECT_THROW(id.shrink({P}), PreconditionError);
  EXPECT_THROW(
      two.shrink(
          {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}),
      PreconditionError);
}

// ---------------------------------------------------------------------
// Elastic execution: bitwise invariance across assignments
// ---------------------------------------------------------------------

TEST(Recovery, ElasticIdentityMatchesParallelBitwise) {
  Fixture s = make_setup(60, 19);
  const std::size_t P = s.part().num_processors();
  simt::Machine clean(P);
  const auto ref = core::parallel_sttsv(clean, s.part(), s.dist(), s.a, s.x,
                                        Transport::kPointToPoint);

  simt::Machine machine(P);
  simt::DirectExchange dex(machine);
  const auto got =
      core::parallel_sttsv(dex, s.part(), s.dist(), s.a, s.x,
                           Transport::kPointToPoint,
                           BlockAssignment::identity(P).hosts());
  expect_bitwise(got.y, ref.y);
}

TEST(Recovery, ShrunkenAssignmentsAreBitwiseInvariant) {
  Fixture s = make_setup(60, 23);
  const std::size_t P = s.part().num_processors();
  simt::Machine clean(P);
  const auto ref = core::parallel_sttsv(clean, s.part(), s.dist(), s.a, s.x,
                                        Transport::kPointToPoint);

  const BlockAssignment id = BlockAssignment::identity(P);
  const std::vector<std::vector<std::size_t>> dead_sets = {
      {0}, {9}, {2, 5}, {0, 1, 2, 3}};
  for (const auto& dead : dead_sets) {
    const BlockAssignment shrunk = id.shrink(dead);
    shrunk.validate();
    simt::Machine machine(P);
    simt::DirectExchange dex(machine);
    const auto got =
        core::parallel_sttsv(dex, s.part(), s.dist(), s.a, s.x,
                             Transport::kPointToPoint, shrunk.hosts());
    expect_bitwise(got.y, ref.y);
    // Fewer hosts, same data: the survivors' kernels cover every role.
    std::uint64_t mults = 0;
    for (const std::uint64_t m : got.ternary_mults) mults += m;
    std::uint64_t ref_mults = 0;
    for (const std::uint64_t m : ref.ternary_mults) ref_mults += m;
    EXPECT_EQ(mults, ref_mults);

    // The same placement over every backend; hier splits the wire over
    // two nodes.
    for (const char* backend : test::kBackends) {
      simt::Machine m(P);
      const auto ex = test::make_backend(backend, m);
      const auto run = core::parallel_sttsv(*ex, s.part(), s.dist(), s.a, s.x,
                                            Transport::kPointToPoint,
                                            shrunk.hosts());
      SCOPED_TRACE(backend);
      expect_bitwise(run.y, ref.y);
      m.ledger().verify_conservation();
    }
  }
}

TEST(Recovery, DeadHostIsRejectedAtEntry) {
  // A dead host's frames are dropped uncharged, so a run placed on one
  // would return a silently wrong y; parallel_sttsv must refuse it up
  // front.
  Fixture s = make_setup(60, 37);
  const std::size_t P = s.part().num_processors();
  const BlockAssignment id = BlockAssignment::identity(P);
  const auto run = [&](simt::Machine& machine,
                       const std::vector<std::size_t>& placement) {
    simt::DirectExchange dex(machine);
    (void)core::parallel_sttsv(dex, s.part(), s.dist(), s.a, s.x,
                               Transport::kPointToPoint, placement);
  };

  simt::Machine machine(P);
  machine.mark_dead(3);
  EXPECT_THROW(run(machine, {}), PreconditionError);
  EXPECT_THROW(run(machine, id.hosts()), PreconditionError);
  const BlockAssignment shrunk = id.shrink({3});
  machine.mark_dead(7);  // still hosts its own role under `shrunk`
  EXPECT_THROW(run(machine, shrunk.hosts()), PreconditionError);
  EXPECT_EQ(machine.ledger().total_words(), 0u) << "nothing may be sent";

  // Malformed placements: wrong length, host out of range.
  simt::Machine fresh(P);
  EXPECT_THROW(run(fresh, std::vector<std::size_t>(P - 1, 0)),
               PreconditionError);
  std::vector<std::size_t> out_of_range = id.hosts();
  out_of_range[2] = P;
  EXPECT_THROW(run(fresh, out_of_range), PreconditionError);
  // Off the dead host, the same machine runs cleanly.
  const BlockAssignment survivors = id.shrink({3, 7});
  simt::DirectExchange dex(machine);
  const auto got =
      core::parallel_sttsv(dex, s.part(), s.dist(), s.a, s.x,
                           Transport::kPointToPoint, survivors.hosts());
  simt::Machine clean(P);
  const auto ref = core::parallel_sttsv(clean, s.part(), s.dist(), s.a, s.x,
                                        Transport::kPointToPoint);
  expect_bitwise(got.y, ref.y);
}

// ---------------------------------------------------------------------
// Failure detection
// ---------------------------------------------------------------------

TEST(Recovery, LivenessVerdictProducesStructuredReport) {
  Fixture s = make_setup(60, 29);
  const std::size_t P = s.part().num_processors();
  FaultInjector injector(FaultConfig{.seed = 7});
  injector.schedule_crash(4, 1);
  simt::Machine machine(P);
  machine.set_fault_injector(&injector);
  ReliableExchange rex(machine, RetryPolicy{3, 1, 4},
                       RecoveryPolicy::kFailFast, LivenessPolicy{true, 2});
  try {
    core::parallel_sttsv(rex, s.part(), s.dist(), s.a, s.x,
                         Transport::kPointToPoint);
    FAIL() << "expected RankLossError";
  } catch (const simt::RankLossError& e) {
    const simt::RankLossReport& loss = e.rank_loss();
    EXPECT_EQ(loss.dead_ranks, (std::vector<std::size_t>{4}));
    EXPECT_EQ(loss.phase, "x-panel");
    EXPECT_GE(loss.silent_attempts, 2u);
    EXPECT_GT(loss.undelivered_frames, 0u);
    EXPECT_EQ(loss.membership_epoch, 1u);
    // The embedded link-fault report names the same peer.
    const simt::FaultReport& r = e.report();
    EXPECT_FALSE(r.degraded);
    EXPECT_TRUE(std::find(r.affected_ranks.begin(), r.affected_ranks.end(),
                          4u) != r.affected_ranks.end());
  }
  EXPECT_FALSE(machine.alive(4));
  EXPECT_EQ(machine.num_alive(), P - 1);
  ASSERT_EQ(machine.rank_loss_reports().size(), 1u);
  EXPECT_EQ(machine.rank_loss_reports()[0].dead_ranks,
            (std::vector<std::size_t>{4}));
  EXPECT_EQ(rex.stats().rank_loss_verdicts, 1u);
}

TEST(Recovery, FlakyLinksAreNotDeclaredDead) {
  // Heavy but transient faults: the detector hears the peers between
  // retries, so the verdict must stay "link flaky" (plain recovery), not
  // "peer dead".
  Fixture s = make_setup(60, 31);
  const std::size_t P = s.part().num_processors();
  simt::Machine clean(P);
  const auto ref = core::parallel_sttsv(clean, s.part(), s.dist(), s.a, s.x,
                                        Transport::kPointToPoint);

  FaultInjector injector(
      FaultConfig{.drop = 0.25, .corrupt = 0.2, .seed = 0xF1AC});
  simt::Machine machine(P);
  machine.set_fault_injector(&injector);
  ReliableExchange rex(machine, RetryPolicy{32, 1, 64},
                       RecoveryPolicy::kFailFast, LivenessPolicy{true, 3});
  const auto got = core::parallel_sttsv(rex, s.part(), s.dist(), s.a, s.x,
                                        Transport::kPointToPoint);
  expect_bitwise(got.y, ref.y);
  EXPECT_EQ(rex.stats().rank_loss_verdicts, 0u);
  EXPECT_EQ(machine.num_alive(), P);
  EXPECT_TRUE(machine.rank_loss_reports().empty());
}

// ---------------------------------------------------------------------
// The acceptance property: crash -> detect -> shrink -> redistribute ->
// resume, across crash sites, fault counts and seeds.
// ---------------------------------------------------------------------

TEST(Recovery, CrashRecoveryPropertySweep) {
  const std::size_t n = 24;
  std::uint64_t sweep_redistribution_words = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    Fixture s = make_setup(n, 1000 + seed);
    const std::size_t P = s.part().num_processors();
    simt::Machine clean(P);
    const auto ref = core::parallel_sttsv(clean, s.part(), s.dist(), s.a,
                                          s.x, Transport::kPointToPoint);

    // Crash site 1 = first data exchange (x phase); site 3 lands in the
    // y-partials protocol window once the x phase needed two exchanges.
    for (const std::uint64_t site : {1u, 3u}) {
      for (const std::size_t f : {std::size_t{1}, std::size_t{2}}) {
        const std::size_t r0 = seed % P;
        const std::size_t r1 = (r0 + 1 + seed % (P - 1)) % P;
        FaultInjector injector(FaultConfig{.seed = 0xC0FFEE + seed});
        injector.schedule_crash(r0, site);
        if (f == 2) injector.schedule_crash(r1, site);

        simt::Machine machine(P);
        machine.set_fault_injector(&injector);
        elastic::RecoveryOptions opts;
        opts.retry = RetryPolicy{2, 1, 2};
        opts.liveness = LivenessPolicy{true, 2};
        const elastic::RecoveryOutcome out = elastic::run_with_recovery(
            machine, s.part(), s.dist(), s.a, s.x, opts);

        // Shrunk to exactly the survivor set P' = P - f.
        EXPECT_EQ(machine.num_alive(), P - f)
            << "seed=" << seed << " site=" << site << " f=" << f;
        EXPECT_EQ(out.assignment.live_ranks().size(), P - f);
        EXPECT_GE(out.shrinks, 1u);
        EXPECT_FALSE(out.reports.empty());
        EXPECT_GE(out.detection_attempts, opts.liveness.suspect_after_attempts);

        // y bitwise identical to the fault-free run at P' (which is
        // itself bitwise identical to the P-rank run by the elastic
        // reduction-order invariant — checked both ways).
        expect_bitwise(out.result.y, ref.y);
        simt::Machine degraded(P);
        simt::DirectExchange dex(degraded);
        const auto at_pprime =
            core::parallel_sttsv(dex, s.part(), s.dist(), s.a, s.x,
                                 Transport::kPointToPoint,
                                 out.assignment.hosts());
        expect_bitwise(out.result.y, at_pprime.y);

        // Three-way ledger conservation, and the recovery channel holds
        // exactly the planned redistribution diff.
        machine.ledger().verify_conservation();
        EXPECT_EQ(machine.ledger().total_words(Channel::kRecovery),
                  out.redistribution_words);
        std::uint64_t planned = 0;
        std::uint64_t from_scratch = 0;
        for (const elastic::RedistributionPlan& plan : out.redistributions) {
          planned += plan.planned_words;
          from_scratch = plan.from_scratch_words;
          EXPECT_FALSE(plan.moves.empty());
          // Recompute the diff independently: a move to the coordinator
          // is a local copy (0 words); every other move carries exactly
          // the orphaned role's share words.
          std::uint64_t expect_words = 0;
          for (const elastic::RoleMove& m : plan.moves) {
            if (m.to == plan.coordinator) {
              EXPECT_EQ(m.words, 0u);
              continue;
            }
            std::uint64_t w = 0;
            for (const std::size_t i : s.part().R(m.role)) {
              w += s.dist().share(i, m.role).length;
            }
            EXPECT_EQ(m.words, w);
            expect_words += w;
          }
          EXPECT_EQ(plan.planned_words, expect_words);
        }
        EXPECT_EQ(planned, out.redistribution_words);
        // The diff beats laying the distribution out from scratch.
        EXPECT_LT(out.redistribution_words, from_scratch);
        sweep_redistribution_words += out.redistribution_words;
      }
    }
  }
  // Somewhere in the sweep a second orphan must have left the
  // coordinator's shard: real recovery traffic flowed and was metered.
  EXPECT_GT(sweep_redistribution_words, 0u);
}

TEST(Recovery, ShrinkBudgetExhaustionRethrows) {
  Fixture s = make_setup(24, 41);
  const std::size_t P = s.part().num_processors();
  FaultInjector injector(FaultConfig{.seed = 5});
  injector.schedule_crash(2, 1);
  simt::Machine machine(P);
  machine.set_fault_injector(&injector);
  elastic::RecoveryOptions opts;
  opts.retry = RetryPolicy{2, 1, 2};
  opts.liveness = LivenessPolicy{true, 2};
  opts.max_shrinks = 0;
  EXPECT_THROW(
      elastic::run_with_recovery(machine, s.part(), s.dist(), s.a, s.x, opts),
      simt::RankLossError);
}

}  // namespace
}  // namespace sttsv
