// Batched STTSV subsystem tests (DESIGN.md §9): the aggregated panel run
// must be bitwise identical to the B-iteration single-vector loop (lanes
// are independent) and to the message-free reference of
// algorithm5_reference.hpp (both sides of the loop comparison run the
// one driver) for every Steiner family (covering every block-kernel
// class), both transports, padded and divisible sizes; the budget
// chooser must pick the least-words family and its plan must run
// end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "algorithm5_reference.hpp"
#include "apps/cp_gradient.hpp"
#include "batch/batched_run.hpp"
#include "batch/plan.hpp"
#include "core/costs.hpp"
#include "core/parallel_sttsv.hpp"
#include "core/sttsv_seq.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv::batch {
namespace {

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint64_t gb = 0;
    std::uint64_t wb = 0;
    std::memcpy(&gb, &got[i], sizeof(double));
    std::memcpy(&wb, &want[i], sizeof(double));
    ASSERT_EQ(gb, wb) << what << " differs at i=" << i << " (got " << got[i]
                      << ", want " << want[i] << ")";
  }
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

/// The baseline the batched run must reproduce bitwise: B independent
/// single-vector Algorithm-5 runs over the plan's own structures.
std::vector<std::vector<double>> run_loop(
    simt::Machine& machine, const Plan& plan, const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& x) {
  std::vector<std::vector<double>> y(x.size());
  for (std::size_t v = 0; v < x.size(); ++v) {
    y[v] = core::parallel_sttsv(machine, plan.partition(),
                                plan.distribution(), a, x[v],
                                plan.key().transport)
               .y;
  }
  return y;
}

struct Case {
  const char* name;
  Family family;
  std::uint64_t param;
  std::size_t n;
};

// Spherical q=2 exercises every kernel class (interior, both face
// classes, central); n=53 adds padding. Boolean and trivial cover the
// other Steiner constructions.
constexpr Case kCases[] = {
    {"spherical q=2 n=60", Family::kSpherical, 2, 60},
    {"spherical q=2 n=53 (padded)", Family::kSpherical, 2, 53},
    {"boolean k=3 n=48", Family::kBoolean, 3, 48},
    {"trivial m=5 n=36 (padded)", Family::kTrivial, 5, 36},
};

// Names each case in ctest listings.
void PrintTo(const Case& c, std::ostream* os) {
  constexpr const char* kFamily[] = {"spherical_q", "boolean_k", "trivial_m"};
  *os << kFamily[static_cast<int>(c.family)] << c.param << "_n" << c.n;
}

class Algorithm5Reference : public ::testing::TestWithParam<Case> {};

TEST_P(Algorithm5Reference, EveryLaneMatchesBitwise) {
  const Case& s = GetParam();
  Rng rng(41);
  const auto a = tensor::random_symmetric(s.n, rng);
  for (const simt::Transport transport :
       {simt::Transport::kPointToPoint, simt::Transport::kAllToAll}) {
    const auto plan = Plan::build(plan_key(s.n, s.family, s.param, transport));
    for (const std::size_t lanes : {1u, 3u, 4u, 5u, 16u}) {
      SCOPED_TRACE(::testing::Message()
                   << "transport " << static_cast<int>(transport)
                   << " lanes " << lanes);
      const auto x = make_panel(s.n, lanes, 500 + lanes);
      simt::Machine machine = plan->make_machine();
      const BatchRunResult got = parallel_sttsv_batch(machine, *plan, a, x);
      ASSERT_EQ(got.y.size(), lanes);
      for (std::size_t v = 0; v < lanes; ++v) {
        expect_bitwise(got.y[v],
                       test::algorithm5_reference(plan->partition(),
                                                  plan->distribution(), a,
                                                  x[v]),
                       s.name);
      }
      if (lanes == 1) {
        simt::Machine single = plan->make_machine();
        expect_bitwise(core::parallel_sttsv(single, plan->partition(),
                                            plan->distribution(), a, x[0],
                                            transport)
                           .y,
                       got.y[0], "single-vector entry point");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, Algorithm5Reference,
                         ::testing::ValuesIn(kCases));

TEST(Algorithm5Reference, ShrunkPlacementOverDirect) {
  // Rank 3 is dead and role 3 runs on rank 4: co-hosted role pairs are
  // local legs, the rest ride host-pair envelopes.
  const auto plan = Plan::build(plan_key(53, Family::kSpherical, 2,
                                         simt::Transport::kPointToPoint));
  std::vector<std::size_t> placement(plan->num_processors());
  for (std::size_t role = 0; role < placement.size(); ++role) {
    placement[role] = role == 3 ? 4 : role;
  }
  Rng rng(43);
  const auto a = tensor::random_symmetric(53, rng);
  const auto x = make_panel(53, 5, 700);
  simt::Machine machine = plan->make_machine();
  machine.mark_dead(3);
  simt::DirectExchange direct(machine);
  const core::PanelRunResult got = core::parallel_sttsv_panel(
      direct, plan->partition(), plan->distribution(), plan->walk(), a, x,
      simt::Transport::kPointToPoint, placement);
  for (std::size_t v = 0; v < x.size(); ++v) {
    expect_bitwise(got.y[v],
                   test::algorithm5_reference(plan->partition(),
                                              plan->distribution(), a, x[v]),
                   "shrunk placement");
  }
}

TEST(Algorithm5Reference, ScheduleAtFoldedPlacements) {
  // Identity; role 3 on rank 4; every odd role on the even rank below it;
  // every role on rank 0. Ranks left without a role stay idle.
  const auto plan = Plan::build(plan_key(53, Family::kSpherical, 2,
                                         simt::Transport::kPointToPoint));
  const partition::ExchangeWalk& walk = plan->walk();
  const std::size_t P = plan->num_processors();
  std::vector<std::vector<std::size_t>> placements(
      4, std::vector<std::size_t>(P, 0));
  for (std::size_t role = 0; role < P; ++role) {
    placements[0][role] = role;
    placements[1][role] = role == 3 ? 4 : role;
    placements[2][role] = role - role % 2;
  }
  Rng rng(47);
  const auto a = tensor::random_symmetric(53, rng);
  const auto x = make_panel(53, 5, 710);
  for (std::size_t k = 0; k < placements.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "placement " << k);
    const core::HostSchedule schedule(walk, placements[k]);
    // Every walk record is exactly one route leg or co-hosted leg.
    std::map<std::pair<std::size_t, std::size_t>, int> legs;
    for (const std::size_t h : schedule.hosts) {
      for (const core::HostSchedule::Route& r : schedule.routes[h]) {
        for (const core::HostSchedule::Leg& leg : r.legs) {
          EXPECT_EQ(schedule.host_of[leg.role], h);
          EXPECT_EQ(schedule.host_of[leg.ex->peer], r.to);
          ++legs[{leg.role, leg.ex->peer}];
        }
      }
      for (const core::HostSchedule::Leg& leg : schedule.local[h]) {
        EXPECT_EQ(schedule.host_of[leg.ex->peer], h);
        ++legs[{leg.role, leg.ex->peer}];
      }
    }
    std::size_t records = 0;
    std::vector<std::vector<std::size_t>> senders(P);
    for (std::size_t p = 0; p < P; ++p) {
      for (const Plan::PeerExchange& ex : walk.exchanges(p)) {
        ++records;
        EXPECT_EQ((legs[{p, ex.peer}]), 1) << p << " -> " << ex.peer;
        senders[ex.peer].push_back(p);  // ascending sending role
      }
    }
    EXPECT_EQ(legs.size(), records);
    // Each role's contributions: every record into it, senders ascending;
    // co-hosted ones read in place, wire ones from a y delivery.
    for (std::size_t rp = 0; rp < P; ++rp) {
      std::vector<std::size_t> from;
      for (const core::HostSchedule::Leg& c :
           schedule.contributions[rp]) {
        from.push_back(c.role);
        EXPECT_EQ(c.ex, &walk.exchange_between(c.role, rp));
        if (schedule.host_of[c.role] == schedule.host_of[rp]) {
          EXPECT_EQ(c.slot, core::HostSchedule::kInPlace);
        } else if (c.ex->y_words > 0) {
          EXPECT_LT(c.slot, schedule.y_inbox[schedule.host_of[rp]].size());
        }
      }
      EXPECT_EQ(from, senders[rp]) << "role " << rp;
    }
    simt::Machine machine = plan->make_machine();
    simt::DirectExchange direct(machine);
    const core::PanelRunResult got = core::parallel_sttsv_panel(
        direct, plan->partition(), plan->distribution(), schedule, a, x,
        simt::Transport::kPointToPoint);
    for (std::size_t v = 0; v < x.size(); ++v) {
      expect_bitwise(got.y[v],
                     test::algorithm5_reference(plan->partition(),
                                                plan->distribution(), a, x[v]),
                     "folded placement");
    }
  }
}

/// Forwards to DirectExchange, then loses the first delivery of the first
/// non-empty inbox in exchange call `lose_at` (0: x phase, 1: y phase).
class LosingExchange final : public simt::Exchanger {
 public:
  LosingExchange(simt::Machine& machine, std::size_t lose_at)
      : Exchanger(machine), direct_(machine), lose_at_(lose_at) {}
  std::vector<std::vector<simt::Delivery>> exchange(
      std::vector<std::vector<simt::Envelope>> outboxes,
      simt::Transport transport) override {
    auto inboxes = direct_.exchange(std::move(outboxes), transport);
    if (calls_++ == lose_at_) {
      for (auto& inbox : inboxes) {
        if (inbox.empty()) continue;
        inbox.erase(inbox.begin());
        break;
      }
    }
    return inboxes;
  }

 private:
  simt::DirectExchange direct_;
  std::size_t lose_at_;
  std::size_t calls_ = 0;
};

TEST(Algorithm5Reference, LostDeliveryIsAnErrorNotAWrongY) {
  const auto plan = Plan::build(plan_key(60, Family::kSpherical, 2,
                                         simt::Transport::kPointToPoint));
  Rng rng(53);
  const auto a = tensor::random_symmetric(60, rng);
  const auto x = make_panel(60, 4, 720);
  for (const std::size_t phase : {0u, 1u}) {
    simt::Machine machine = plan->make_machine();
    LosingExchange losing(machine, phase);
    EXPECT_THROW((void)parallel_sttsv_batch(losing, *plan, a, x),
                 InternalError)
        << (phase == 0 ? "x" : "y") << " phase";
  }
}

TEST(BatchedRun, BitwiseEqualToSingleVectorLoop) {
  for (const Case& s : kCases) {
    for (const simt::Transport transport :
         {simt::Transport::kPointToPoint, simt::Transport::kAllToAll}) {
      SCOPED_TRACE(s.name);
      const PlanKey key = plan_key(s.n, s.family, s.param, transport);
      const auto plan = Plan::build(key);
      simt::Machine machine = plan->make_machine();
      Rng rng(77);
      const auto a = tensor::random_symmetric(s.n, rng);
      const auto x = make_panel(s.n, 5, 300);

      const auto want = run_loop(machine, *plan, a, x);
      const BatchRunResult got = parallel_sttsv_batch(machine, *plan, a, x);
      ASSERT_EQ(got.y.size(), x.size());
      for (std::size_t v = 0; v < x.size(); ++v) {
        expect_bitwise(got.y[v], want[v], s.name);
      }
    }
  }
}

TEST(BatchedRun, LaneWidthsOneThroughSixteen) {
  // Whole 8- and 4-lane chunks run the panel kernels and the 1-3 lanes
  // left over run the core kernels: every tail size, alone and after
  // chunks (13 is 8 + 4 + 1 where the host has AVX-512).
  const auto plan = Plan::build(plan_key(60, Family::kSpherical, 2,
                                         simt::Transport::kPointToPoint));
  simt::Machine machine = plan->make_machine();
  Rng rng(5);
  const auto a = tensor::random_symmetric(60, rng);
  for (const std::size_t lanes : {1u, 2u, 3u, 5u, 6u, 7u, 8u, 13u, 16u}) {
    const auto x = make_panel(60, lanes, 900);
    const auto want = run_loop(machine, *plan, a, x);
    const BatchRunResult got = parallel_sttsv_batch(machine, *plan, a, x);
    for (std::size_t v = 0; v < lanes; ++v) {
      expect_bitwise(got.y[v], want[v], "lane sweep");
    }
  }
}

TEST(BatchedRun, MatchesSequentialReference) {
  const auto plan = Plan::build(plan_key(48, Family::kBoolean, 3,
                                         simt::Transport::kPointToPoint));
  simt::Machine machine = plan->make_machine();
  Rng rng(11);
  const auto a = tensor::random_symmetric(48, rng);
  const auto x = make_panel(48, 4, 40);
  const BatchRunResult got = parallel_sttsv_batch(machine, *plan, a, x);
  for (std::size_t v = 0; v < x.size(); ++v) {
    const auto ref = core::sttsv_packed(a, x[v]);
    ASSERT_EQ(got.y[v].size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(got.y[v][i], ref[i], 1e-10) << "lane " << v << " i=" << i;
    }
  }
}

TEST(BatchedRun, ValidatesInputs) {
  const auto plan = Plan::build(plan_key(60, Family::kSpherical, 2,
                                         simt::Transport::kPointToPoint));
  simt::Machine machine = plan->make_machine();
  Rng rng(3);
  const auto a = tensor::random_symmetric(60, rng);

  EXPECT_THROW(parallel_sttsv_batch(machine, *plan, a, {}),
               PreconditionError);
  EXPECT_THROW(
      parallel_sttsv_batch(machine, *plan, a, make_panel(59, 2, 1)),
      PreconditionError);
  const auto small = tensor::random_symmetric(30, rng);
  EXPECT_THROW(
      parallel_sttsv_batch(machine, *plan, small, make_panel(60, 2, 1)),
      PreconditionError);
  simt::Machine wrong(plan->num_processors() + 1);
  EXPECT_THROW(
      parallel_sttsv_batch(wrong, *plan, a, make_panel(60, 2, 1)),
      PreconditionError);
  // A dead rank's traffic would be dropped uncharged: rejected at entry,
  // before anything moves.
  simt::Machine degraded = plan->make_machine();
  degraded.mark_dead(3);
  EXPECT_THROW(
      parallel_sttsv_batch(degraded, *plan, a, make_panel(60, 3, 1)),
      PreconditionError);
  EXPECT_EQ(degraded.ledger().total_words(), 0u);
}

TEST(Plan, KeyComputesProcessorCount) {
  EXPECT_EQ(plan_key(60, Family::kSpherical, 2,
                     simt::Transport::kPointToPoint)
                .processors,
            10u);  // q(q²+1)
  EXPECT_EQ(plan_key(48, Family::kBoolean, 3,
                     simt::Transport::kPointToPoint)
                .processors,
            14u);  // 8·7·6/24
  EXPECT_EQ(plan_key(36, Family::kTrivial, 5,
                     simt::Transport::kPointToPoint)
                .processors,
            10u);  // C(5,3)
}

// --- plan_key_for_budget: the least-words plan within a rank budget ------

constexpr simt::Transport kP2P = simt::Transport::kPointToPoint;

TEST(PlanKeyForBudget, MinimizesPredictedCommunication) {
  // Budget 35: trivial m=7 offers more processors (P=35) but its
  // replication λ₁ = 15 makes it costlier than spherical q=3 (P=30,
  // λ₁ = 12, predicted 240 words at n = 300): spherical must win.
  const PlanKey key = plan_key_for_budget(35, 300, kP2P);
  EXPECT_EQ(key.processors, 30u);
  EXPECT_EQ(key.family, Family::kSpherical);
  EXPECT_EQ(key.param, 3u);

  // Budget 100: spherical q=4 (P=68) beats trivial m=9 (P=84).
  const PlanKey key100 = plan_key_for_budget(100, 680, kP2P);
  EXPECT_EQ(key100.family, Family::kSpherical);
  EXPECT_EQ(key100.param, 4u);
}

TEST(PlanKeyForBudget, PrefersSphericalOnTies) {
  // Budget 10 at n = 120: spherical q=2 (P=10), trivial m=4 (P=4) and
  // trivial m=5 (P=10) each move 120 words: spherical wins.
  ASSERT_EQ(core::steiner_algorithm_words(120, 5, 3), 120.0);
  ASSERT_EQ(core::steiner_algorithm_words(120, 4, 3), 120.0);
  const PlanKey key = plan_key_for_budget(10, 120, kP2P);
  EXPECT_EQ(key.processors, 10u);
  EXPECT_EQ(key.family, Family::kSpherical);
}

TEST(PlanKeyForBudget, PredictedWordsMatchTheExchangeWalk) {
  // The chooser's estimate is the busiest rank's words in the plan's own
  // exchange walk, padding or not.
  const struct {
    Family family;
    std::uint64_t param;
  } families[] = {
      {Family::kSpherical, 2}, {Family::kSpherical, 3},
      {Family::kSpherical, 4}, {Family::kBoolean, 3},
      {Family::kTrivial, 4},   {Family::kTrivial, 5},
      {Family::kTrivial, 8},   {Family::kTrivial, 9},
  };
  for (const std::size_t n :
       {10u, 17u, 38u, 100u, 120u, 240u, 241u, 300u, 333u, 384u, 680u}) {
    for (const auto& f : families) {
      const auto plan = Plan::build(plan_key(n, f.family, f.param, kP2P));
      std::size_t busiest = 0;
      for (std::size_t p = 0; p < plan->num_processors(); ++p) {
        std::size_t words = 0;
        for (const auto& ex : plan->exchanges(p)) {
          words += ex.x_words + ex.y_words;
        }
        busiest = std::max(busiest, words);
      }
      EXPECT_EQ(core::steiner_algorithm_words(
                    n, plan->partition().num_row_blocks(),
                    plan->partition().steiner_block_size()),
                static_cast<double>(busiest))
          << "n=" << n << " P=" << plan->num_processors();
    }
  }
}

TEST(PlanKeyForBudget, SmallBudgetsFallBackToTrivial) {
  const PlanKey key = plan_key_for_budget(5, 50, kP2P);  // only m=4 fits
  EXPECT_EQ(key.processors, 4u);
  EXPECT_EQ(key.family, Family::kTrivial);
  EXPECT_THROW(plan_key_for_budget(3, 50, kP2P), PreconditionError);
}

TEST(PlanKeyForBudget, SummaryConsistent) {
  const std::size_t n = 480;
  const auto plan = Plan::build(plan_key_for_budget(30, n, kP2P));
  const partition::TetraPartition& part = plan->partition();
  const partition::VectorDistribution& dist = plan->distribution();
  EXPECT_EQ(plan->num_processors(), 30u);
  EXPECT_EQ(part.num_row_blocks(), 10u);
  EXPECT_EQ(dist.block_length_b(), 48u);
  // The estimate the chooser ranks by is the Section 7.2.2 closed form
  // on the spherical plan when m | n.
  EXPECT_NEAR(core::steiner_algorithm_words(n, part.num_row_blocks(),
                                            part.steiner_block_size()),
              core::optimal_algorithm_words(n, 3), 1e-9);
  std::size_t tensor_words = 0;
  std::size_t vector_words = 0;
  for (std::size_t p = 0; p < plan->num_processors(); ++p) {
    tensor_words = std::max(tensor_words,
                            part.stored_entries(p, dist.block_length_b()));
    vector_words = std::max(vector_words, dist.local_elements(p));
  }
  EXPECT_GT(tensor_words, 0u);
  EXPECT_EQ(vector_words, n / 30);
}

TEST(PlanKeyForBudget, EndToEndRunMatchesReference) {
  const std::size_t n = 120;
  Rng rng(1);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  const auto y_ref = core::sttsv_packed(a, x);
  for (const std::size_t budget : {10u, 14u, 30u, 40u}) {
    const auto plan = Plan::build(plan_key_for_budget(budget, n, kP2P));
    simt::Machine machine = plan->make_machine();
    const auto y = parallel_sttsv_batch(machine, *plan, a, {x}).y[0];
    ASSERT_EQ(y.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y[i], y_ref[i], 1e-9) << "budget=" << budget << " i=" << i;
    }
    EXPECT_LE(machine.num_ranks(), budget);
  }
}

TEST(PlanKeyForBudget, PredictionMatchesMeasurementDivisible) {
  // Divisible spherical case: measured == predicted exactly.
  const std::size_t n = 10 * 12 * 3;  // m=10, |Q_i|=12 divisible
  Rng rng(2);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  const auto plan = Plan::build(plan_key_for_budget(30, n, kP2P));
  simt::Machine machine = plan->make_machine();
  parallel_sttsv_batch(machine, *plan, a, {x});
  const auto measured =
      static_cast<double>(machine.ledger().max_words_sent());
  EXPECT_DOUBLE_EQ(measured, core::optimal_algorithm_words(n, 3));
  EXPECT_DOUBLE_EQ(measured, core::steiner_algorithm_words(n, 10, 4));
}

TEST(CpGradientBatched, BitwiseEqualToParallelLoop) {
  const std::size_t n = 60;
  const auto plan = Plan::build(plan_key(n, Family::kSpherical, 2,
                                         simt::Transport::kPointToPoint));
  simt::Machine machine = plan->make_machine();
  simt::DirectExchange direct(machine);
  Rng rng(31);
  const auto a = tensor::random_symmetric(n, rng);
  const auto columns = make_panel(n, 3, 600);

  const auto want = apps::cp_gradient_parallel(
      direct, plan->partition(), plan->distribution(), a, columns,
      plan->key().transport);
  const auto got = apps::cp_gradient_batched(direct, *plan, a, columns);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t l = 0; l < got.size(); ++l) {
    expect_bitwise(got[l], want[l], "gradient column");
  }
}

}  // namespace
}  // namespace sttsv::batch
